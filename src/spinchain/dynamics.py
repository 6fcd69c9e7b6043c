"""Time evolution: closed-form unitary slots, pair propagators and the
contraction along the chain.

Each gate drives its qubit pair with a Gaussian exchange pulse inside its
own slot, and the Pauli terms of one gate commute. Every kernel uses that
structure; each piece of physics has one kernel:

Unitary slots
    The product of the per-step exponentials ``exp(-i H(t_m) dt)`` over a
    slot collapses to ``V exp(-i sum_i S_i d_i) V^dag``: ``V`` is the
    gate's common eigenbasis, ``d_i`` the eigenvalues of channel ``i`` and
    ``S_i`` its right-endpoint pulse area on the step grid
    (:func:`discrete_channel_areas`). :func:`slot_unitary` is that 4x4
    matrix; calibration scores the same matrix, and cumulative areas give
    the state after every step (:func:`gate_step_states`).

Noisy slots
    Within one slot the Lindblad generator splits into commuting pieces
    with disjoint site support: each active pair (its drive plus its two
    sites' dissipators) and each idle site's dissipator. The slot
    propagator therefore factorises exactly into 16x16 pair propagators,
    integrated by fixed-step RK4 and cached, and closed-form single-site
    channels on the idle sites.

Single gates
    A gate on its own pair needs no register: :func:`gate_fidelity`
    applies ``slot_unitary`` to the pure input, or the cached pair
    propagator to its vectorised density matrix.

Contraction along the chain
    Transport from product inputs is a tensor network with one wire per
    site: its input, the closed-form idle channel over each gap between
    its gates (the idle channels form a semigroup), its gates in slot
    order, then a trace, or an open leg for a readout site. Each gate is
    a (4, 4, 4, 4) tensor: its pair propagator, or ``kron(U, U*)`` of its
    slot unitary when noiseless. :func:`evolve_lindblad_product` cuts
    that network by site instead of by time (Markov & Shi, SIAM J.
    Comput. 38, 963 (2008)): sites join one frontier tensor in index
    order, a gate's first site brings in the whole gate and its second
    site closes the gate's legs. On the transport circuits the frontier
    never exceeds 1024 entries, so the cost is linear in the length.

Pulses are truncated to their slot. Whether a grid point carries drive is
decided by its step index (the slot-end point never does), so results do
not depend on how accumulated step times round near the slot edge.

Trace is monitored, never renormalised: drift beyond ``TRACE_ABORT_TOL``
(a NaN trace included) raises :class:`TraceDriftError`, and so does a
pair propagator that stops being finite and trace-preserving while it is
built (checked every ``TRACE_CHECK_STRIDE`` steps and at the end), so
integrator bugs cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import (
    GateSpec,
    gate_channel_blocks,
    gate_eigensystem,
    ideal_gate_matrix,
    materialize_channel_pulses,
)
from .memo import BuildOnce
from .operators import check_state, fidelity_to_pure, overlap_fidelity, pauli
from .pulses import PulseSchedule

DEFAULT_STEPS_PER_SLOT = 1000
TRACE_ABORT_TOL = 1e-6
# Pair builds check their map every this many RK4 steps: an unstable step
# breaks trace preservation within ~10 steps but overflows only after ~80.
TRACE_CHECK_STRIDE = 32

_NOISE_KINDS = ("none", "dephasing", "amplitude_damping")


class NumericalError(RuntimeError):
    """An evolution broke a conserved quantity (trace or norm)."""


class TraceDriftError(NumericalError):
    """Raised when the integrated trace drifts beyond ``TRACE_ABORT_TOL``."""


@dataclass(frozen=True)
class NoiseModel:
    """Uniform single-site noise: ``sqrt(gamma) sigma_z`` (dephasing) or
    ``sqrt(gamma) sigma_-`` (amplitude damping) on every site."""

    kind: str
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.gamma < 0.0:
            raise ValueError("decay rate gamma must be non-negative")
        if self.kind == "none":
            object.__setattr__(self, "gamma", 0.0)

    def jump_block(self) -> np.ndarray | None:
        """The 2x2 jump operator (without the sqrt(gamma) factor)."""
        if self.kind == "dephasing":
            return pauli("z")
        if self.kind == "amplitude_damping":
            return pauli("minus")
        return None


NOISELESS = NoiseModel(kind="none")


def _is_noiseless(noise: NoiseModel) -> bool:
    return noise.kind == "none" or noise.gamma == 0.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size. ``dt=None`` resolves to slot_duration/1000."""

    dt: float | None = None

    def __post_init__(self):
        if self.dt is not None and not (self.dt > 0.0):
            raise ValueError("time step must be positive")


def _resolve_steps(slot_duration: float, cfg: IntegratorConfig) -> tuple[int, float]:
    """Steps per slot and the actual dt; dt must divide the slot evenly."""
    if cfg.dt is None:
        return DEFAULT_STEPS_PER_SLOT, slot_duration / DEFAULT_STEPS_PER_SLOT
    n = int(round(slot_duration / cfg.dt))
    if n < 1 or abs(n * cfg.dt - slot_duration) > 1e-9 * max(1.0, slot_duration):
        raise ValueError(
            f"dt={cfg.dt} does not divide the slot duration {slot_duration}"
        )
    return n, cfg.dt


def _check_trace(rho: np.ndarray, where: str):
    drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
    if not drift <= TRACE_ABORT_TOL:  # a NaN trace fails too
        raise TraceDriftError(f"trace drifted by {drift:.3e} {where}")


# ---------------------------------------------------------------------------
# Unitary slots


def _channel_samples(params, slot_duration: float, n_steps: int):
    """Pulse values at the right endpoints ``m dt`` (m = 1..n_steps) of a
    slot starting at 0, one row per channel, and ``dt``. The slot-end
    sample is zero: pulses are truncated to ``[0, slot)``."""
    dt = slot_duration / n_steps
    m = np.arange(1, n_steps + 1)
    ts, inside = dt * m, m < n_steps
    pulses = materialize_channel_pulses(params, 0.0, slot_duration)
    return np.array([p.value(ts) * inside for p in pulses]), dt


def discrete_channel_areas(
    params,
    slot_duration: float = 1.0,
    n_steps: int = DEFAULT_STEPS_PER_SLOT,
) -> tuple[float, ...]:
    """Right-endpoint pulse areas on the step grid, one per (A, W) channel:
    exactly what a product of per-step exponentials accumulates."""
    samples, dt = _channel_samples(params, slot_duration, n_steps)
    return tuple(float(np.sum(row) * dt) for row in samples)


def _eigen_unitary(kind: str, areas) -> np.ndarray:
    """``V exp(-i sum_i S_i d_i) V^dag``; ``areas`` rows may carry a
    trailing step axis, giving one 4x4 unitary per step."""
    v, diags = gate_eigensystem(kind)
    if len(areas) != len(diags):
        raise ValueError(f"{kind} takes {len(diags)} (A, W) pair(s)")
    phase = sum(np.multiply.outer(s, d) for s, d in zip(areas, diags))
    return (v * np.exp(-1j * phase)[..., None, :]) @ v.conj().T


def slot_unitary(
    kind: str,
    params,
    slot_duration: float = 1.0,
    n_steps: int = DEFAULT_STEPS_PER_SLOT,
) -> np.ndarray:
    """The exact stepped one-slot 4x4 unitary of a gate kind; ``params``
    holds one (A, W) pair per channel, as in ``GateSpec``."""
    return _eigen_unitary(kind, discrete_channel_areas(params, slot_duration, n_steps))


def _check_norm(psi: np.ndarray):
    # Each closed-form unitary is exact to roundoff, so anything past 1e-9
    # means a genuine defect.
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-9:
        raise NumericalError(f"unitary evolution lost normalisation ({norm - 1.0:.3e})")


def gate_step_states(
    gate: GateSpec, inputs, cfg: IntegratorConfig | None = None
) -> np.ndarray:
    """States of one gate alone on its pair at t = 0 and after every step
    of one unit slot, stacked as ``(input, step, 4)``, for each pure
    2-qubit input: the closed form at the cumulative pulse areas, so step
    ``m`` is the product of the first ``m`` per-step exponentials. A final
    state off unit norm raises :class:`NumericalError`.
    """
    n_steps, _ = _resolve_steps(1.0, cfg or IntegratorConfig())
    samples, dt = _channel_samples(gate.params, 1.0, n_steps)
    steps = _eigen_unitary(gate.kind, np.cumsum(samples, axis=1) * dt)
    out = []
    for psi0 in inputs:
        psi0 = check_state(psi0)
        states = (steps @ psi0.reshape(4, 1))[..., 0]
        _check_norm(states[-1])
        out.append(np.concatenate([psi0[None], states]))
    return np.array(out)


# ---------------------------------------------------------------------------
# Noisy slots: exact factorisation into pair propagators and idle channels

_I4 = np.eye(4, dtype=complex)
_VEC_I4 = _I4.reshape(16)
_PAIR_PROP_CACHE = BuildOnce()


def _hamiltonian_superop(h4: np.ndarray) -> np.ndarray:
    # Row-major vec: vec(A X B) = (A kron B^T) vec(X).
    return -1j * (np.kron(h4, _I4) - np.kron(_I4, h4.T))


def _dissipator_superop(l4: np.ndarray) -> np.ndarray:
    ldl = l4.conj().T @ l4
    return (
        np.kron(l4, l4.conj())
        - 0.5 * np.kron(ldl, _I4)
        - 0.5 * np.kron(_I4, ldl.T)
    )


def _pair_rk4(
    kind: str,
    params: tuple[tuple[float, float], ...],
    noise: NoiseModel,
    duration: float,
    dt: float,
    observer=None,
) -> np.ndarray:
    """16x16 propagator of one driven pair (plus its two sites' noise)
    across one slot, by fixed-step RK4 on the propagator itself.

    The observer, when given, is called with ``(t, phi)`` after each step.
    A map that is not finite or not trace-preserving to
    ``TRACE_ABORT_TOL``, every ``TRACE_CHECK_STRIDE`` steps and when
    finished, raises :class:`TraceDriftError` before numpy can overflow.
    """
    blocks = gate_channel_blocks(kind)
    pulses = materialize_channel_pulses(params, 0.0, duration)
    drive_superops = [_hamiltonian_superop(b) for b in blocks]
    constant = np.zeros((16, 16), dtype=complex)
    jump = noise.jump_block()
    if jump is not None and noise.gamma > 0.0:
        for l4 in (np.kron(jump, np.eye(2)), np.kron(np.eye(2), jump)):
            constant += noise.gamma * _dissipator_superop(l4)

    n_steps = int(round(duration / dt))
    steps = np.arange(n_steps)
    t0 = steps * dt
    # Drive at each step's start, midpoint and end; the last step ends on
    # the slot edge, where the truncated pulse is already off.
    starts = np.array([p.value(t0) for p in pulses]).T
    mids = np.array([p.value(t0 + 0.5 * dt) for p in pulses]).T
    ends = np.array([p.value(t0 + dt) * (steps < n_steps - 1) for p in pulses]).T

    def generator(values):
        gen = constant.copy()
        for value, sup in zip(values, drive_superops):
            gen += value * sup
        return gen

    phi = np.eye(16, dtype=complex)
    for m in range(n_steps):
        g1 = generator(starts[m])
        g_mid = generator(mids[m])
        g4 = generator(ends[m])
        k1 = g1 @ phi
        k2 = g_mid @ (phi + (0.5 * dt) * k1)
        k3 = g_mid @ (phi + (0.5 * dt) * k2)
        k4 = g4 @ (phi + dt * k3)
        phi = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (m + 1) % TRACE_CHECK_STRIDE == 0:
            _check_pair_map(kind, phi)
        if observer is not None:
            observer(m * dt + dt, phi)
    _check_pair_map(kind, phi)
    return phi


def _check_pair_map(kind: str, phi: np.ndarray):
    error = np.max(np.abs(_VEC_I4 @ phi - _VEC_I4))
    if not (np.all(np.isfinite(phi)) and error <= TRACE_ABORT_TOL):
        raise TraceDriftError(
            f"the {kind} pair propagator is not trace-preserving (error {error:.3e})"
        )


def _pair_slot_propagator(
    kind: str,
    params: tuple[tuple[float, float], ...],
    noise: NoiseModel,
    duration: float,
    dt: float,
) -> np.ndarray:
    """The cached slot propagator of one pair (see :func:`_pair_rk4`)."""
    key = (kind, params, noise.kind, float(noise.gamma), float(duration), float(dt))
    return _PAIR_PROP_CACHE.get(
        key, lambda: _pair_rk4(kind, params, noise, duration, dt)
    )


def gate_superoperator(
    gate: GateSpec,
    noise: NoiseModel,
    cfg: IntegratorConfig | None = None,
    observer=None,
) -> np.ndarray:
    """Row-major 16x16 superoperator of one gate alone on its pair across
    one unit slot, under the pair's own noise.

    The observer, when given, is called with ``(t, phi)`` at t = 0 and
    after every RK4 step, so one integration serves any number of inputs:
    ``phi @ rho.reshape(16)`` is the evolved pair state at ``t``.
    """
    cfg = cfg or IntegratorConfig()
    _, dt = _resolve_steps(1.0, cfg)
    if observer is not None:
        observer(0.0, np.eye(16, dtype=complex))
    return _pair_rk4(gate.kind, gate.params, noise, 1.0, dt, observer)


def _idle_superop(noise: NoiseModel, duration: float) -> np.ndarray:
    """Row-major 4x4 map of one site idling for ``duration``, in closed
    form; the idle channels form a semigroup, so any gap is one map."""
    if noise.kind == "dephasing":
        f = np.exp(-2.0 * noise.gamma * duration)
        return np.diag([1.0, f, f, 1.0]).astype(complex)
    # amplitude damping: sigma_- = |1><0| drains the |0> population
    e = np.exp(-noise.gamma * duration)
    r = np.exp(-0.5 * noise.gamma * duration)
    m = np.diag([e, r, r, 1.0]).astype(complex)
    m[3, 0] = 1.0 - e
    return m


# ---------------------------------------------------------------------------
# Transport from product inputs: contraction along the chain

FRONTIER_MAX_ENTRIES = 4**11  # 64 MiB of complex128
_VEC_I2 = np.eye(2, dtype=complex).reshape(4)


def _gate_tensor(
    spec: GateSpec, noise: NoiseModel, tau: float, n_steps: int, dt: float
) -> np.ndarray:
    """A gate's slot map as a ``(4, 4, 4, 4)`` tensor with legs (out_a,
    out_b, in_a, in_b), one row-major 2x2 leg per site of ``spec.qubits``:
    the closed-form ``kron(U, U*)`` when noiseless, else the cached pair
    propagator."""
    if _is_noiseless(noise):
        u = slot_unitary(spec.kind, spec.params, tau, n_steps)
        phi = np.kron(u, u.conj())
    else:
        phi = _pair_slot_propagator(spec.kind, spec.params, noise, tau, dt)
    return phi.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(4, 4, 4, 4)


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
    (see the module docstring). A frontier over ``FRONTIER_MAX_ENTRIES`` entries raises
    ``ValueError``; the trace of the result is checked, never
    renormalised.
    """
    cfg = cfg or IntegratorConfig()
    states = [np.asarray(s, dtype=complex) for s in site_states]
    n = len(states)
    keep = tuple(int(s) for s in keep)
    if len(set(keep)) != len(keep) or any(not 1 <= s <= n for s in keep):
        raise ValueError("keep must list distinct sites of the chain")
    for state in states:
        if state.shape != (2, 2):
            raise ValueError("site states must be 2x2 density matrices")
        _check_trace(state, "in the initial state")
    n_steps, dt = _resolve_steps(schedule.slot_duration, cfg)
    tau = schedule.slot_duration
    tensors: dict = {}

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
        key = (spec.kind, spec.params)
        if key not in tensors:
            tensors[key] = _gate_tensor(spec, noise, tau, n_steps, dt)
        g = tensors[key]
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
    frontier = np.ones((), dtype=complex)
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
        if not slots or _is_noiseless(noise):
            return
        m = _idle_superop(noise, slots * tau)
        if loose is not None:
            loose = m @ loose
        else:
            wire = legs.index("wire")
            frontier = np.tensordot(frontier, m, axes=([wire], [1]))
            legs.append(legs.pop(wire))

    for site in range(1, n + 1):
        loose = states[site - 1].reshape(4)
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
            frontier = np.tensordot(frontier, _VEC_I2, axes=([wire], [0]))
            legs.remove("wire")

    w = len(keep)
    order = [legs.index(("keep", site)) for site in keep]
    t = frontier.transpose(order).reshape((2,) * (2 * w))
    t = t.transpose(list(range(0, 2 * w, 2)) + list(range(1, 2 * w, 2)))
    rho = np.ascontiguousarray(t).reshape(2**w, 2**w)
    _check_trace(rho, "in the final state")
    return rho


# ---------------------------------------------------------------------------


def gate_fidelity(
    input_state: np.ndarray,
    gate: GateSpec,
    noise: NoiseModel = NOISELESS,
    alpha: float = 1.0,
    cfg: IntegratorConfig | None = None,
) -> float:
    """Fidelity of one stretched gate on (1, 2) against its ideal action.

    The gate's pulses are rescaled to a slot of duration ``alpha * tau0``;
    the normalised 2-qubit input goes through the slot unitary when
    noiseless, otherwise its density matrix goes through the cached pair
    propagator, and the result is compared with the ideal gate output.
    """
    if not (alpha > 0.0):
        raise ValueError("duration factor alpha must be positive")
    psi0 = check_state(np.asarray(input_state, dtype=complex))
    if psi0.shape != (4,) or gate.qubits != (1, 2):
        raise ValueError("gate_fidelity runs one gate on qubits (1, 2) of a 2-qubit input")
    n_steps, dt = _resolve_steps(alpha, cfg or IntegratorConfig())
    target = ideal_gate_matrix(gate.kind) @ psi0
    if _is_noiseless(noise):
        out = slot_unitary(gate.kind, gate.params, alpha, n_steps) @ psi0
        _check_norm(out)
        return overlap_fidelity(out, target)
    phi = _pair_slot_propagator(gate.kind, gate.params, noise, alpha, dt)
    rho = (phi @ np.outer(psi0, psi0.conj()).reshape(16)).reshape(4, 4)
    _check_trace(rho, "in the final state")
    return fidelity_to_pure(rho, target)
