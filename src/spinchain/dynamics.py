"""Time evolution: closed-form unitary slots and the factored Lindblad path.

Each gate drives its qubit pair with a Gaussian exchange pulse inside its
own slot, and the Pauli terms of one gate commute. Both integrators use
that structure; each piece of physics has one kernel:

Unitary slots
    The product of the per-step exponentials ``exp(-i H(t_m) dt)`` over a
    slot collapses to ``V exp(-i sum_i S_i d_i) V^dag``: ``V`` is the
    gate's common eigenbasis, ``d_i`` the eigenvalues of channel ``i`` and
    ``S_i`` its right-endpoint pulse area on the step grid
    (:func:`discrete_channel_areas`). :func:`slot_unitary` is that 4x4
    matrix; calibration scores the same matrix.

Noisy slots
    Within one slot the Lindblad generator splits into commuting pieces
    with disjoint site support: each active pair (its drive plus its two
    sites' dissipators) and each idle site's dissipator. The slot
    propagator therefore factorises exactly into 16x16 pair propagators,
    integrated by fixed-step RK4 and cached, and closed-form single-site
    channels on the idle sites.

Light cone
    The noise is local too, so transport from product inputs need not
    hold the whole chain (causal-cone locality, as in Vidal, PRL 91,
    147902 (2003)). A site that no gate has touched yet is still in a
    product state: its input under its own idle channel. A site that no
    gate touches again can be traced out at once, because its later
    channels act on it alone and commute with the partial trace.
    :func:`evolve_lindblad_product` therefore joins each site at its
    first gate and traces it out after its last, unless it is read out;
    :func:`live_register_width` is the widest register that leaves, 4
    sites on the two-row ladder for any length. Both entry points run
    each slot through one function.

Pulses are truncated to their slot. Whether a grid point carries drive is
decided by its step index (the slot-end point never does), so results do
not depend on how accumulated step times round near the slot edge.

Trace is monitored, never renormalised: drift beyond ``TRACE_ABORT_TOL``
raises :class:`TraceDriftError` so integrator bugs cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .hamiltonians import (
    GateSpec,
    gate_channel_blocks,
    gate_eigensystem,
    ideal_gate_matrix,
    materialize_channel_pulses,
)
from .memo import BuildOnce
from .operators import (
    check_state,
    fidelity_to_pure,
    num_qubits,
    overlap_fidelity,
    pauli,
)
from .pulses import PulseSchedule, schedule_sequence

DEFAULT_STEPS_PER_SLOT = 1000
TRACE_ABORT_TOL = 1e-6

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


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size. ``dt=None`` resolves to slot_duration/1000."""

    dt: float | None = None
    # The one density-matrix integrator's name, not a setting: the
    # benchmark's span tracer (perfbench/tracer.py) labels runs by it.
    method: ClassVar[str] = "factored"

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
    if drift > TRACE_ABORT_TOL:
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


def _apply_pair_matrix_to_state(
    u4: np.ndarray, qubits: tuple[int, int], psi_tensor: np.ndarray, n: int
) -> np.ndarray:
    """Apply a 4x4 block on ``qubits``; axes of ``psi_tensor`` before its
    last ``n`` are stack axes, matched by a stack of blocks."""
    lead = psi_tensor.ndim - n
    axes = (lead + qubits[0] - 1, lead + qubits[1] - 1)
    t = np.moveaxis(psi_tensor, axes, (lead, lead + 1))
    shape = t.shape
    t = u4 @ t.reshape(shape[:lead] + (4, -1))
    return np.moveaxis(t.reshape(shape), (lead, lead + 1), axes)


def evolve_unitary(
    psi: np.ndarray,
    schedule: PulseSchedule,
    cfg: IntegratorConfig | None = None,
    observer=None,
) -> np.ndarray:
    """Propagate a pure state through a schedule without noise.

    Each slot applies one closed-form 4x4 unitary per gate; gates sharing
    a slot act on disjoint pairs, so the order does not matter. The
    observer, when given, is called with ``(t, psi)`` at t = 0 and after
    every step.
    """
    cfg = cfg or IntegratorConfig()
    psi = check_state(psi).copy()
    n = num_qubits(psi.shape[0])
    if observer is not None:
        observer(0.0, psi)
    if schedule.num_slots == 0:
        return psi
    n_steps, dt = _resolve_steps(schedule.slot_duration, cfg)
    tau = schedule.slot_duration

    tensor = psi.reshape((2,) * n)
    for k in range(schedule.num_slots):
        if observer is not None:
            # Observed steps: each gate's closed form at its cumulative
            # areas, applied to a stack holding one register per step.
            stack = np.broadcast_to(tensor, (n_steps,) + tensor.shape)
        for entry in schedule.slot_entries(k):
            spec: GateSpec = entry.gate
            if max(spec.qubits) > n:
                raise ValueError("gate addresses a qubit outside the chain")
            u4 = slot_unitary(spec.kind, spec.params, tau, n_steps)
            tensor = _apply_pair_matrix_to_state(u4, spec.qubits, tensor, n)
            if observer is not None:
                samples, grid_dt = _channel_samples(spec.params, tau, n_steps)
                steps = _eigen_unitary(spec.kind, np.cumsum(samples, axis=1) * grid_dt)
                stack = _apply_pair_matrix_to_state(steps, spec.qubits, stack, n)
        if observer is not None:
            times = schedule.slot_window(k)[0] + dt * np.arange(1, n_steps + 1)
            for t, state in zip(times.tolist(), stack):
                observer(t, np.ascontiguousarray(state).reshape(-1))
    out = np.ascontiguousarray(tensor).reshape(-1)
    norm = np.linalg.norm(out)
    # Each slot unitary is exact to roundoff, so anything past 1e-9 means
    # a genuine defect.
    if abs(norm - 1.0) > 1e-9:
        raise NumericalError(f"unitary evolution lost normalisation ({norm - 1.0:.3e})")
    return out


# ---------------------------------------------------------------------------
# Noisy slots: exact factorisation into pair propagators and idle channels

_I4 = np.eye(4, dtype=complex)
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
        if observer is not None:
            observer(m * dt + dt, phi)
    return phi


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


def _apply_pair_superop(
    rho: np.ndarray, phi: np.ndarray, qubits: tuple[int, int], n: int
) -> np.ndarray:
    i, j = qubits
    t = rho.reshape((2,) * (2 * n))
    axes = (i - 1, j - 1, n + i - 1, n + j - 1)
    t = np.moveaxis(t, axes, (0, 1, 2, 3))
    shape = t.shape
    t = phi @ t.reshape(16, -1)
    t = np.moveaxis(t.reshape(shape), (0, 1, 2, 3), axes)
    return np.ascontiguousarray(t).reshape(rho.shape)


def _apply_idle_channels(
    rho: np.ndarray, idle_sites, noise: NoiseModel, tau: float, n: int
):
    """Exact single-site channels on idle sites, in place."""
    if noise.kind == "none" or noise.gamma == 0.0 or not idle_sites:
        return
    t = rho.reshape((2,) * (2 * n))

    def block(site, row_bit, col_bit):
        sl = [slice(None)] * (2 * n)
        sl[site - 1] = row_bit
        sl[n + site - 1] = col_bit
        return tuple(sl)

    if noise.kind == "dephasing":
        f = np.exp(-2.0 * noise.gamma * tau)
        for s in idle_sites:
            t[block(s, 0, 1)] *= f
            t[block(s, 1, 0)] *= f
    else:  # amplitude damping: sigma_- = |1><0| drains the |0> population
        e = np.exp(-noise.gamma * tau)
        r = np.exp(-0.5 * noise.gamma * tau)
        for s in idle_sites:
            t[block(s, 1, 1)] += (1.0 - e) * t[block(s, 0, 0)]
            t[block(s, 0, 0)] *= e
            t[block(s, 0, 1)] *= r
            t[block(s, 1, 0)] *= r


def _light_cone(schedule: PulseSchedule, n: int, keep) -> tuple[list, list]:
    """Per slot, the sites that join the register before it (their first
    gate) and the sites traced out after it (their last gate, unless in
    ``keep``); rejects gates outside the ``n`` sites."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for entry in schedule.entries:
        if max(entry.gate.qubits) > n:
            raise ValueError("gate addresses a qubit outside the chain")
        for site in entry.gate.qubits:
            first[site] = min(first.get(site, entry.slot), entry.slot)
            last[site] = max(last.get(site, entry.slot), entry.slot)
    joins: list[list[int]] = [[] for _ in range(schedule.num_slots)]
    drops: list[list[int]] = [[] for _ in range(schedule.num_slots)]
    for site in sorted(first):
        joins[first[site]].append(site)
        if site not in keep:
            drops[last[site]].append(site)
    return joins, drops


def live_register_width(schedule: PulseSchedule, n: int, keep) -> int:
    """Most sites :func:`evolve_lindblad_product` holds at once when it
    runs ``schedule`` on ``n`` sites and reads out ``keep``."""
    joins, drops = _light_cone(schedule, n, keep)
    width = peak = 0
    for joined, dropped in zip(joins, drops):
        width += len(joined)
        peak = max(peak, width)
        width -= len(dropped)
    return max(peak, len(keep))


def _lindblad_slot(
    rho: np.ndarray,
    live: list[int],
    schedule: PulseSchedule,
    k: int,
    noise: NoiseModel,
    dt: float,
) -> np.ndarray:
    """Slot ``k`` on a register holding the chain sites ``live``, in
    register order: the cached pair propagators of the slot's gates, the
    closed-form channels of the idle live sites, then the trace check."""
    n = len(live)
    position = {site: p for p, site in enumerate(live, start=1)}
    tau = schedule.slot_duration
    active_sites: set[int] = set()
    for entry in schedule.slot_entries(k):
        spec: GateSpec = entry.gate
        try:
            pair = (position[spec.qubits[0]], position[spec.qubits[1]])
        except KeyError:
            raise ValueError("gate addresses a qubit outside the chain") from None
        phi = _pair_slot_propagator(spec.kind, spec.params, noise, tau, dt)
        rho = _apply_pair_superop(rho, phi, pair, n)
        active_sites.update(spec.qubits)
    idle = [position[s] for s in live if s not in active_sites]
    _apply_idle_channels(rho, idle, noise, tau, n)
    _check_trace(rho, f"after slot {k}")
    return rho


def evolve_lindblad(
    rho: np.ndarray,
    schedule: PulseSchedule,
    noise: NoiseModel,
    cfg: IntegratorConfig | None = None,
    observer=None,
) -> np.ndarray:
    """Integrate the master equation across a schedule, slot by slot.

    Each slot applies its cached pair propagators and the closed-form
    channels of its idle sites. The observer, when given, is called with
    ``(t, rho)`` at t = 0 and after every slot; trace drift beyond
    ``TRACE_ABORT_TOL`` raises :class:`TraceDriftError`. No
    renormalisation is ever applied.
    """
    cfg = cfg or IntegratorConfig()
    rho = np.asarray(rho, dtype=complex).copy()
    n = num_qubits(rho.shape[0])
    _check_trace(rho, "in the initial state")
    if observer is not None:
        observer(0.0, rho)
    if schedule.num_slots == 0:
        return rho
    _, dt = _resolve_steps(schedule.slot_duration, cfg)
    live = list(range(1, n + 1))
    for k in range(schedule.num_slots):
        rho = _lindblad_slot(rho, live, schedule, k, noise, dt)
        if observer is not None:
            observer(schedule.slot_window(k)[1], rho)
    return rho


def _idle_site_state(state: np.ndarray, noise: NoiseModel, duration: float):
    """One site's 2x2 state after idling for ``duration``."""
    state = state.copy()
    _apply_idle_channels(state, [1], noise, duration, 1)
    return state


def _trace_out(rho: np.ndarray, position: int, n: int) -> np.ndarray:
    """Trace out register position ``position`` (1-based) of ``n``."""
    t = rho.reshape((2,) * (2 * n))
    half = 2 ** (n - 1)
    return np.trace(t, axis1=position - 1, axis2=n + position - 1).reshape(half, half)


def evolve_lindblad_product(
    site_states,
    schedule: PulseSchedule,
    noise: NoiseModel,
    keep,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """The state of the sites ``keep`` (1-based, in that order) after
    running ``schedule`` on the product of the 2x2 ``site_states``.

    Equal to :func:`evolve_lindblad` on the Kronecker product followed by
    a partial trace, but the register holds only the light cone: a site
    joins, with its idle channel of every slot it waited, at its first
    gate and is traced out after its last (see the module docstring).
    Each slot runs the same body as :func:`evolve_lindblad`, trace check
    included; no renormalisation is ever applied.
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
    joins, drops = _light_cone(schedule, n, keep)
    _, dt = _resolve_steps(schedule.slot_duration, cfg)
    tau = schedule.slot_duration

    rho = np.ones((1, 1), dtype=complex)
    live: list[int] = []
    for k in range(schedule.num_slots):
        for site in joins[k]:
            rho = np.kron(rho, _idle_site_state(states[site - 1], noise, k * tau))
            live.append(site)
        rho = _lindblad_slot(rho, live, schedule, k, noise, dt)
        for site in drops[k]:
            rho = _trace_out(rho, live.index(site) + 1, len(live))
            live.remove(site)
    for site in keep:
        if site not in live:  # no gate touched it: it idled the whole run
            idled = _idle_site_state(states[site - 1], noise, schedule.total_time)
            rho = np.kron(rho, idled)
            live.append(site)
    w = len(live)
    order = [live.index(site) for site in keep]
    t = rho.reshape((2,) * (2 * w)).transpose(order + [w + p for p in order])
    return np.ascontiguousarray(t).reshape(2**w, 2**w)


# ---------------------------------------------------------------------------


def gate_fidelity(
    input_state: np.ndarray,
    gate: GateSpec,
    noise: NoiseModel = NOISELESS,
    alpha: float = 1.0,
    cfg: IntegratorConfig | None = None,
) -> float:
    """Fidelity of one stretched gate against its ideal action.

    The gate's pulses are rescaled to a slot of duration ``alpha * tau0``,
    the input is evolved (unitarily when noiseless, otherwise through the
    master equation) and compared with the ideal gate output.
    """
    if not (alpha > 0.0):
        raise ValueError("duration factor alpha must be positive")
    psi0 = check_state(np.asarray(input_state, dtype=complex))
    n = num_qubits(psi0.shape[0])
    if max(gate.qubits) > n:
        raise ValueError("gate addresses a qubit outside the input state")
    schedule = schedule_sequence([gate], slot_duration=alpha)
    target = _ideal_output(gate, psi0, n)
    if noise.kind == "none" or noise.gamma == 0.0:
        out = evolve_unitary(psi0, schedule, cfg)
        return overlap_fidelity(out, target)
    rho = np.outer(psi0, psi0.conj())
    rho_final = evolve_lindblad(rho, schedule, noise, cfg)
    return fidelity_to_pure(rho_final, target)


def _ideal_output(gate: GateSpec, psi0: np.ndarray, n: int) -> np.ndarray:
    u4 = ideal_gate_matrix(gate.kind)
    tensor = _apply_pair_matrix_to_state(u4, gate.qubits, psi0.reshape((2,) * n), n)
    return np.ascontiguousarray(tensor).reshape(-1)
