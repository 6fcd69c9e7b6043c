"""Dense reference constructions for the evolution kernels (small N only).

Everything here is built independently of the factored kernels: the
chain Hamiltonian comes from the gate channel blocks (pinned to their
Pauli strings by ``test_channel_blocks_match_kron_oracle``), the
materialised pulses and ``embed``; the master equation is a dense
row-major vectorised generator on the whole chain. As in the package,
pulses are truncated to their slot by step index: the grid point on a
slot's end carries no drive.
"""

import itertools

import numpy as np
from scipy.linalg import expm

from spinchain.hamiltonians import gate_channel_blocks, materialize_channel_pulses
from spinchain.operators import LocalOperator, embed, num_qubits


def slot_channels(schedule, slot, n):
    """(pulse, dense channel operator) for every channel of the slot's gates."""
    channels = []
    start, end = schedule.slot_window(slot)
    for entry in schedule.slot_entries(slot):
        gate = entry.gate
        pulses = materialize_channel_pulses(gate.params, start, end)
        for pulse, block in zip(pulses, gate_channel_blocks(gate.kind)):
            channels.append((pulse, embed(LocalOperator(gate.qubits, block), n)))
    return channels


def dense_hamiltonian(channels, t, n):
    """Drive Hamiltonian of ``slot_channels`` at absolute time ``t``,
    ignoring the window (callers decide which grid points carry drive)."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for pulse, op in channels:
        h += pulse.value(t) * op
    return h


def hamiltonian_superop(h):
    """Row-major vec: vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def dissipator_superop(noise, n):
    """Sum over sites of gamma * D[L_site], densely embedded."""
    dim = 2**n
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    block = noise.jump_block()
    if block is None or noise.gamma == 0.0:
        return out
    eye = np.eye(dim)
    for site in range(1, n + 1):
        l = embed(LocalOperator((site,), block), n)
        ldl = l.conj().T @ l
        out += noise.gamma * (
            np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
        )
    return out


def rk4_lindblad(rho, schedule, noise, dt=None, observer=None):
    """Classical fixed-step RK4 on the dense vectorised master equation of
    the whole chain; ``observer(t, rho)`` sees every step.

    ``rho`` may carry a trailing batch axis, ``(dim, dim, k)``, to evolve
    k matrices at once.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = num_qubits(dim)
    if dt is None:
        dt = schedule.slot_duration / 1000
    n_steps = int(round(schedule.slot_duration / dt))
    dissipator = dissipator_superop(noise, n)
    vec = rho.reshape(dim * dim, -1)
    for k in range(schedule.num_slots):
        start, _ = schedule.slot_window(k)
        channels = slot_channels(schedule, k, n)
        drive = [(pulse, hamiltonian_superop(op)) for pulse, op in channels]

        def generator_times(t, v, driven=True):
            out = dissipator @ v
            if driven:
                for pulse, sup in drive:
                    out += pulse.value(t) * (sup @ v)
            return out

        for m in range(n_steps):
            t0 = start + m * dt
            k1 = generator_times(t0, vec)
            k2 = generator_times(t0 + 0.5 * dt, vec + 0.5 * dt * k1)
            k3 = generator_times(t0 + 0.5 * dt, vec + 0.5 * dt * k2)
            k4 = generator_times(t0 + dt, vec + dt * k3, driven=m < n_steps - 1)
            vec = vec + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if observer is not None:
                observer(t0 + dt, vec.reshape(rho.shape))
    return vec.reshape(rho.shape)


def stepped_unitary(schedule, n, n_steps):
    """Product of right-endpoint exponentials ``exp(-i H(t_m) dt)`` over the
    whole schedule; the step on each slot's end carries no drive."""
    dt = schedule.slot_duration / n_steps
    u = np.eye(2**n, dtype=complex)
    for k in range(schedule.num_slots):
        start, _ = schedule.slot_window(k)
        channels = slot_channels(schedule, k, n)
        for m in range(1, n_steps):
            u = expm(-1j * dt * dense_hamiltonian(channels, start + m * dt, n)) @ u
    return u


def partial_trace_keep_last_two(rho):
    """Trace out qubits ``1..N-2``, returning the 4x4 state of the last two."""
    dim = rho.shape[0]
    n = num_qubits(dim)
    if n < 2:
        raise ValueError("need at least two qubits")
    if n == 2:
        return rho.copy()
    rest = dim // 4
    t = rho.reshape(rest, 4, rest, 4)
    return np.einsum("iaib->ab", t)


def reduced_state(rho, keep):
    """Partial trace onto the sites ``keep`` (1-based, in that order), by
    summing matrix elements over every basis label of the other sites."""
    n = num_qubits(rho.shape[0])
    rest = [s for s in range(1, n + 1) if s not in keep]

    def index(sites, bits):
        return sum(b << (n - s) for s, b in zip(sites, bits))

    def label(bits):
        return sum(b << (len(bits) - 1 - i) for i, b in enumerate(bits))

    out = np.zeros((2 ** len(keep), 2 ** len(keep)), dtype=complex)
    labels = list(itertools.product((0, 1), repeat=len(keep)))
    for r in itertools.product((0, 1), repeat=len(rest)):
        offset = index(rest, r)
        for a in labels:
            for b in labels:
                out[label(a), label(b)] += rho[
                    offset + index(keep, a), offset + index(keep, b)
                ]
    return out
