"""Reference constructions for the evolution kernels (small N only).

The dense references are built independently of the package's kernels:
the chain Hamiltonian comes from the gate channel blocks (pinned to their
Pauli strings by ``test_channel_blocks_match_kron_oracle``), the pulses
(each channel's rescaled ``(amplitude, width, center)``, sampled by
``gaussian``) and ``embed``; the master equation is a dense
row-major vectorised generator on the whole chain. As in the package,
pulses are truncated to their slot by step index: the grid point on a
slot's end carries no drive.

The package's maps are real Pauli-transfer matrices;
``row_major_from_pauli`` is the reference change of basis that compares
them with the row-major references here.

The full-register integrators ``evolve_unitary`` and ``evolve_lindblad``
run a schedule slot by slot on a ``2^N`` register, applying the package's
own 4x4 slot unitaries and 16x16 pair propagators in place: they share
those kernels, and are references for how the package composes them
(the contraction along the chain, the single-gate paths).

The calibration references score one point at a time and run one
Nelder-Mead start after another, as scalar code; the package's batched
objective and lockstep simplex loop must reproduce them bit for bit.
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import expm

from spinchain.calibration import (
    CALIBRATION_STATES,
    SUCCESS_OBJECTIVE,
    CalibrationResult,
    _bound_arrays,
    analytic_channel_areas,
)
from spinchain.circuits import _input_sites
from spinchain import dynamics
from spinchain.dynamics import (
    DEFAULT_STEPS_PER_SLOT,
    IntegratorConfig,
    NumericalError,
    _check_trace,
    _dissipator_superop,
    _hamiltonian_superop,
    _idle_superop,
    _resolve_steps,
    gate_superoperator,
    slot_unitary,
)
from spinchain.hamiltonians import (
    gate_channel_blocks,
    gate_eigensystem,
    ideal_gate_matrix,
    rescale_channel_params,
)
from spinchain.operators import check_state, num_qubits, pauli
from spinchain.pulses import PulseSchedule, gaussian


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A 2x2 or 4x4 block acting on one or two distinct (1-based) sites.

    For two targets the block is read in target order: the first target is
    the first tensor factor of the 4x4 block.
    """

    targets: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self):
        targets = tuple(int(q) for q in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) not in (1, 2):
            raise ValueError("a local operator acts on one or two sites")
        if any(q < 1 for q in targets):
            raise ValueError("qubit indices are 1-based")
        if len(set(targets)) != len(targets):
            raise ValueError("target sites must be distinct")
        block = np.asarray(self.block, dtype=complex)
        object.__setattr__(self, "block", block)
        dim = 2 ** len(targets)
        if block.shape != (dim, dim):
            raise ValueError(
                f"block shape {block.shape} does not match {len(targets)} target(s)"
            )


def embed(op, n_qubits):
    """Dense ``2^N x 2^N`` matrix of a local operator (identity elsewhere),
    by brute-force index construction; O(4^N) memory."""
    if any(q > n_qubits for q in op.targets):
        raise ValueError("target site outside the chain")
    dim = 2**n_qubits
    # Qubit q (1-based, MSB first) owns bit position n_qubits - q.
    shifts = [n_qubits - q for q in op.targets]
    mask = 0
    for s in shifts:
        mask |= 1 << s
    idx = np.arange(dim)
    rest = idx & ~mask
    sub = np.zeros(dim, dtype=np.int64)
    k = len(shifts)
    for pos, s in enumerate(shifts):
        sub |= ((idx >> s) & 1) << (k - 1 - pos)
    out = op.block[sub[:, None], sub[None, :]] * (rest[:, None] == rest[None, :])
    return np.ascontiguousarray(out)


def fidelity(rho_out, rho_target):
    """Squared Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``
    of two density matrices of the same dimension."""
    rho_out = np.asarray(rho_out, dtype=complex)
    rho_target = np.asarray(rho_target, dtype=complex)
    if rho_out.shape != rho_target.shape:
        raise ValueError("density matrices differ in dimension")
    w, v = np.linalg.eigh(0.5 * (rho_out + rho_out.conj().T))
    if w.min() < -1e-6:
        raise ValueError("first argument is not positive within tolerance")
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_rho @ rho_target @ sqrt_rho
    mu = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if mu.min() < -1e-6:
        raise ValueError("second argument is not positive within tolerance")
    root_sum = np.sum(np.sqrt(np.clip(mu, 0.0, None)))
    return float(root_sum**2)


def idle_schedule(num_slots, slot_duration=1.0):
    """A gate-free schedule: the chain just sits in its noise channel."""
    if num_slots < 0 or not (slot_duration > 0.0):
        raise ValueError("need num_slots >= 0 and a positive slot duration")
    return PulseSchedule(entries=(), slot_duration=slot_duration, num_slots=num_slots)


_PAULIS = [pauli(k) for k in ("identity", "x", "y", "z")]


def row_major_from_pauli(phi):
    """The row-major map of a real Pauli-transfer map of one site (4x4) or
    one pair (16x16, index 4a + b), or of a stack of them: ``B phi
    B^dag``, where column a of the unitary B is the row-major vec of Pauli
    string a (P_a, or P_a kron P_b at 4a + b) over its norm."""
    strings = _PAULIS if phi.shape[-1] == 4 else [np.kron(a, b) for a in _PAULIS for b in _PAULIS]
    basis = np.array([s.reshape(-1) for s in strings]).T / np.sqrt(len(strings[0]))
    return basis @ phi @ basis.conj().T


def apply_pair_matrix_to_state(u4, qubits, psi_tensor):
    """Apply a 4x4 block on ``qubits`` of a ``(2,) * n`` state tensor."""
    axes = (qubits[0] - 1, qubits[1] - 1)
    t = np.moveaxis(psi_tensor, axes, (0, 1))
    shape = t.shape
    t = u4 @ t.reshape(4, -1)
    return np.moveaxis(t.reshape(shape), (0, 1), axes)


def apply_superop(rho, phi, qubits, n):
    """Apply a row-major superoperator on the sites ``qubits`` (one or two)."""
    axes = [q - 1 for q in qubits] + [n + q - 1 for q in qubits]
    front = list(range(len(axes)))
    t = np.moveaxis(rho.reshape((2,) * (2 * n)), axes, front)
    shape = t.shape
    t = phi @ t.reshape(phi.shape[1], -1)
    t = np.moveaxis(t.reshape(shape), front, axes)
    return np.ascontiguousarray(t).reshape(rho.shape)


def _checked_entries(schedule, k, n):
    entries = schedule.slot_entries(k)
    if any(max(entry.gate.qubits) > n for entry in entries):
        raise ValueError("gate addresses a qubit outside the chain")
    return entries


def evolve_unitary(psi, schedule, cfg=None):
    """A pure state through a noiseless schedule: each slot applies one
    closed-form 4x4 unitary per gate to the full register."""
    psi = check_state(psi)
    n = num_qubits(psi.shape[0])
    if schedule.num_slots == 0:
        return psi.copy()
    n_steps, _ = _resolve_steps(schedule.slot_duration, cfg or IntegratorConfig())
    tensor = psi.reshape((2,) * n)
    for k in range(schedule.num_slots):
        for entry in _checked_entries(schedule, k, n):
            gate = entry.gate
            u4 = slot_unitary(gate.kind, gate.params, schedule.slot_duration, n_steps)
            tensor = apply_pair_matrix_to_state(u4, gate.qubits, tensor)
    out = np.ascontiguousarray(tensor).reshape(-1)
    norm = np.linalg.norm(out)
    if abs(norm - 1.0) > 1e-9:
        raise NumericalError(f"unitary evolution lost normalisation ({norm - 1.0:.3e})")
    return out


def evolve_lindblad(rho, schedule, noise, cfg=None):
    """The master equation across a schedule on the full register, slot by
    slot: each gate's cached slot map, then the closed-form idle
    channel of every site no gate touches, each in row-major form; the
    trace is checked after every slot."""
    rho = np.asarray(rho, dtype=complex).copy()
    n = num_qubits(rho.shape[0])
    _check_trace(np.trace(rho), "in the initial state")
    if schedule.num_slots == 0:
        return rho
    tau = schedule.slot_duration
    for k in range(schedule.num_slots):
        active = set()
        for entry in _checked_entries(schedule, k, n):
            gate = entry.gate
            phi = row_major_from_pauli(gate_superoperator(gate, noise, tau, cfg))
            rho = apply_superop(rho, phi, gate.qubits, n)
            active.update(gate.qubits)
        if noise.kind != "none":
            idle = row_major_from_pauli(_idle_superop(noise, tau))
            for site in range(1, n + 1):
                if site not in active:
                    rho = apply_superop(rho, idle, (site,), n)
        _check_trace(np.trace(rho), f"after slot {k}")
    return rho


def slot_channels(schedule, slot, n):
    """(pulse, dense channel operator) for every channel of the slot's gates,
    a pulse being its rescaled ``(amplitude, width, center)``."""
    channels = []
    start, end = schedule.slot_window(slot)
    for entry in schedule.slot_entries(slot):
        gate = entry.gate
        amplitude, width, center = rescale_channel_params(gate.params, start, end)
        for a, w, block in zip(amplitude.ravel(), width.ravel(), gate_channel_blocks(gate.kind)):
            channels.append(((a, w, center), embed(LocalOperator(gate.qubits, block), n)))
    return channels


def dense_hamiltonian(channels, t, n):
    """Drive Hamiltonian of ``slot_channels`` at absolute time ``t``,
    ignoring the window (callers decide which grid points carry drive)."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for pulse, op in channels:
        h += gaussian(t, *pulse) * op
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
                    out += gaussian(t, *pulse) * (sup @ v)
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


def pair_rk4_loop(kind, params, noise, duration, n_steps, observer=None):
    """16x16 row-major propagator of one driven pair (plus its two sites'
    noise) across one slot, by fixed-step RK4 on the propagator itself, one
    Python iteration per step; ``observer(t, phi)`` sees every step.

    The reference for ``dynamics._pair_rk4``, through
    :func:`row_major_from_pauli`: the same generator letters and sample
    points, summed and multiplied in the complex row-major basis, step
    after step.
    """
    amplitude, width, center = rescale_channel_params(params, 0.0, duration)
    drive_superops = [_hamiltonian_superop(b) for b in gate_channel_blocks(kind)]
    constant = np.zeros((16, 16), dtype=complex)
    jump = noise.jump_block()
    if jump is not None:
        for l4 in (np.kron(jump, np.eye(2)), np.kron(np.eye(2), jump)):
            constant += noise.gamma * _dissipator_superop(l4)

    dt = duration / n_steps
    steps = np.arange(n_steps)
    t0 = steps * dt
    starts = gaussian(t0, amplitude, width, center).T
    mids = gaussian(t0 + 0.5 * dt, amplitude, width, center).T
    ends = (gaussian(t0 + dt, amplitude, width, center) * (steps < n_steps - 1)).T

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


def pair_step_maps_stages(kind, params, noise, duration, n_steps):
    """The packed RK4 step maps minus the identity of one driven pair
    across one slot, chunk by chunk as ``dynamics._pair_step_maps`` gives
    them, by the three RK4 stage products of every step.

    The reference for the series of ``dynamics._pair_series``: the same
    packed letters (``dynamics._pair_words``' rate-1 table, its constant
    letter times gamma * scale, so at the case's own rate) times the drive
    sampled at each step's start, midpoint and end of the slot itself,
    then the stages applied to the identity, hk_2 = h g_m (I + hk_1 / 2),
    hk_3 = h g_m (I + hk_2 / 2), hk_4 = h g_4 (I + hk_3), combined as
    (hk_1 + 2 hk_2 + 2 hk_3 + hk_4) / 6.
    """
    amplitude, width, center = rescale_channel_params(params, 0.0, duration)
    letters, _, _, scale, layout = dynamics._pair_words(kind, noise.kind)
    letters = letters.copy()
    letters[0] *= noise.gamma * scale
    k, b = layout.shape
    h = duration / n_steps
    eye = np.eye(b)
    for first in range(0, n_steps, dynamics.PAIR_CHUNK_STEPS):
        steps = np.arange(first, min(first + dynamics.PAIR_CHUNK_STEPS, n_steps))
        t0 = steps * h
        samples = (
            h * gaussian(t0, amplitude, width, center),
            h * gaussian(t0 + 0.5 * h, amplitude, width, center),
            h * gaussian(t0 + h, amplitude, width, center) * (steps < n_steps - 1),
        )
        hg1, hgm, hg4 = (
            (np.column_stack([np.full(len(steps), h), *sample]) @ letters).reshape(-1, k, b, b)
            for sample in samples
        )
        hk1 = hg1
        hk2 = hgm @ (eye + 0.5 * hk1)
        hk3 = hgm @ (eye + 0.5 * hk2)
        hk4 = hg4 @ (eye + hk3)
        yield (hk1 + 2.0 * hk2 + 2.0 * hk3 + hk4) / 6.0


def tree_product_natural(d):
    """The product of the maps ``I + d[i]``, later steps on the left, minus
    the identity, by the pairwise tree in time order that
    ``dynamics._tree_product`` replaced: pairs of adjacent entries from
    strided views, an odd entry carried up as it is.

    The reference for the bit-reversed tree: each level's entry covers
    the same run of steps, so the products must agree bit for bit.
    """
    while len(d) > 1:
        even = len(d) - len(d) % 2
        pairs = dynamics._then(d[0:even:2], d[1:even:2])
        d = np.concatenate([pairs, d[even:]]) if even < len(d) else pairs
    return d[0].copy()


def pair_rk4_natural(kind, params, noise, duration, n_steps):
    """The real Pauli-transfer map of ``dynamics._pair_rk4`` for one case,
    with each chunk's step maps put back in time order and multiplied by
    :func:`tree_product_natural`, then folded in order as the package
    folds them, with numpy's overflow silenced, and the result checked
    once by ``dynamics._check_pair_maps``. Raises the ``TraceDriftError``
    of an aborting build."""
    z = dynamics._pair_z(kind, params, noise, duration, n_steps)
    total = None
    for chunk in dynamics._pair_series(kind, params, noise.kind, n_steps):
        with np.errstate(over="ignore", invalid="ignore"):
            product = tree_product_natural(dynamics._pair_step_maps(chunk, z)[chunk.time_order])
            total = product if total is None else dynamics._then(total, product)
    dynamics._check_pair_maps(kind, total)
    layout = dynamics._pair_words(kind, noise.kind)[4]
    return dynamics._unpacked(total, layout)


def stepped_unitary(schedule, n, n_steps, observer=None):
    """Product of right-endpoint exponentials ``exp(-i H(t_m) dt)`` over the
    whole schedule; the step on each slot's end carries no drive.
    ``observer(t, u)`` sees the product after every step."""
    dt = schedule.slot_duration / n_steps
    u = np.eye(2**n, dtype=complex)
    for k in range(schedule.num_slots):
        start, _ = schedule.slot_window(k)
        channels = slot_channels(schedule, k, n)
        for m in range(1, n_steps + 1):
            if m < n_steps:
                u = expm(-1j * dt * dense_hamiltonian(channels, start + m * dt, n)) @ u
            if observer is not None:
                observer(start + m * dt, u)
    return u


def zero_contour_loop(fmap):
    """Points (phi, theta) where ``fmap.delta`` crosses zero, by a Python
    loop over every grid edge: the reference for ``circuits.zero_contour``.
    Along theta each column gives its exact zeros and its interpolated
    sign changes; along phi each row gives its sign changes; the points
    come back as ``sorted`` orders their (phi, theta) tuples."""
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
    return np.array(sorted(points), dtype=float)


def transport_input(topology, payload, control=None):
    """Full-register state |control>|payload>|0...0> (control defaults |+>)."""
    sites = _input_sites(topology, payload)
    if control is not None:
        sites[0] = np.asarray(control, dtype=complex)
    return reduce(np.kron, sites)


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


def point_fidelities(params, problem):
    """The five calibration-state fidelities of one parameter point, scored
    alone: each channel's pulse sampled on the default unit-slot grid and
    summed as one float, then one closed-form 4x4 slot unitary."""
    amplitude, width, center = rescale_channel_params(problem.parameter_pairs(params), 0.0, 1.0)
    n = DEFAULT_STEPS_PER_SLOT
    dt = 1.0 / n
    m = np.arange(1, n + 1)
    ts, inside = dt * m, m < n
    samples = gaussian(ts, amplitude, width, center)
    areas = [float(np.sum(row * inside) * dt) for row in samples]
    v, diags = gate_eigensystem(problem.kind)
    phase = sum(np.multiply.outer(s, d) for s, d in zip(areas, diags))
    u = (v * np.exp(-1j * phase)[None, :]) @ v.conj().T
    outs = (u @ CALIBRATION_STATES.T).T
    targets = (ideal_gate_matrix(problem.kind) @ CALIBRATION_STATES.T).T
    return np.abs(np.sum(targets.conj() * outs, axis=1)) ** 2


def point_objective(params, problem):
    return float(1.0 - np.mean(point_fidelities(params, problem)))


def nelder_mead_loop(f, x0, step=None, max_iter=5000, diameter_tol=1e-10, f_tol=1e-9):
    """Nelder-Mead (reflection 1, expansion 2, contraction 0.5, shrink 0.5)
    of a scalar ``f`` from one start, one vertex list per iteration.
    Returns ``(x_best, f_best, n_iterations, n_evaluations)``."""
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    if step is None:
        step = 0.1 * np.maximum(np.abs(x0), 0.1)
    step = np.broadcast_to(np.asarray(step, dtype=float), (d,))

    simplex = [x0.copy()]
    for i in range(d):
        x = x0.copy()
        x[i] += step[i]
        simplex.append(x)
    values = [f(x) for x in simplex]
    nfev = d + 1

    iteration = 0
    for iteration in range(1, max_iter + 1):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        diameter = max(np.max(np.abs(x - simplex[0])) for x in simplex[1:])
        if values[0] < f_tol or diameter < diameter_tol:
            break

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = f(reflected)
        nfev += 1

        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = f(expanded)
            nfev += 1
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (worst - centroid)
            f_contracted = f(contracted)
            nfev += 1
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                best = simplex[0]
                for i in range(1, d + 1):
                    simplex[i] = best + 0.5 * (simplex[i] - best)
                    values[i] = f(simplex[i])
                nfev += d

    order = np.argsort(values, kind="stable")
    best_idx = order[0]
    return simplex[best_idx].copy(), values[best_idx], iteration, nfev


def calibrate_loop(problem, seeds, max_iter=5000, diameter_tol=1e-10, f_tol=1e-9):
    """Multi-start calibration one start after another: each start's
    :func:`nelder_mead_loop` on the box-penalised :func:`point_objective`;
    the first best start wins."""
    lo, hi = _bound_arrays(problem)

    def penalised(x):
        excess = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        pen = float(np.sum(excess))
        if pen > 0.0:
            return 1.0 + pen
        return point_objective(x, problem)

    best = None
    total_evals = 0
    for index, seed in enumerate(seeds):
        start = np.clip(np.asarray(seed, dtype=float), lo + 1e-12, hi)
        x, fx, _, nfev = nelder_mead_loop(
            penalised, start, 0.05 * (hi - lo), max_iter, diameter_tol, f_tol
        )
        total_evals += nfev
        if best is None or fx < best[1]:
            best = (x, fx, index)

    x_best, f_best, seed_index = best
    return CalibrationResult(
        kind=problem.kind,
        params=tuple(float(p) for p in x_best),
        objective_value=float(f_best),
        per_state_fidelities=tuple(float(f) for f in point_fidelities(x_best, problem)),
        areas=analytic_channel_areas(problem.parameter_pairs(x_best)),
        success=bool(f_best < SUCCESS_OBJECTIVE),
        seed_index=seed_index,
        n_evaluations=total_evals,
    )
