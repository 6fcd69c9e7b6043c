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
    matrix, and calibration scores the same matrix, for a whole batch of
    parameter points at once. Cumulative areas give the unitary after
    every step.

Noisy slots
    Within one slot the Lindblad generator splits into commuting pieces
    with disjoint site support: each active pair (its drive plus its two
    sites' dissipators) and each idle site's dissipator. The slot
    propagator therefore factorises exactly into 16x16 pair propagators,
    integrated by fixed-step RK4, and closed-form single-site channels on
    the idle sites. A pair propagator is built in the real Pauli-transfer
    basis, where a Hermiticity-preserving generator is real (a complex one
    raises :class:`NumericalError`). There the generator's letters share
    invariant blocks, the weak symmetries of the noisy pair (Buča &
    Prosen, New J. Phys. 14, 073007 (2012)): the connected components of
    their exact nonzero pattern. They are packed into the smallest
    uniform blocks that hold them: four 4x4 blocks for every gate kind
    under dephasing, two 8x8 blocks for swap and cnot under amplitude
    damping and one 16x16 block for cnot_rotated under it. Every map of a
    build is a ``(k, b, b)`` stack of blocks, and four 4x4 blocks cost a
    16th of a 16x16 product.
    One GEMM of the pulse samples against the packed letters gives every
    step's generators, three batched products give every step's RK4 map,
    and a pairwise tree (Blelloch, CMU-CS-90-190) multiplies them, in
    chunks of ``PAIR_CHUNK_STEPS`` steps. Maps are carried as their
    difference from the identity, so near-identity steps multiply without
    losing digits, and scattered back into 16x16 only for the row-major
    map. Sums and products of block-diagonal maps stay block-diagonal, so
    the entries left out are exactly zero and the packed build equals the
    16x16 one bit for bit.

Single gates
    :func:`gate_superoperator` is the one entry point for a gate alone on
    its pair, and the one place that picks a kernel for its 16x16 slot
    map: ``kron(U, U*)`` of the slot unitary when noiseless, pair RK4
    otherwise. Maps are cached by ``(kind, params, noise, duration,
    n_steps)``: an explicit ``dt`` and the default grid share a build
    when they give the same step count. :func:`gate_fidelity` and
    transport read these maps; the ``trace`` command reads
    :func:`gate_step_maps`, an uncached stream of the map after every
    step: the closed form at cumulative areas, or the prefix products of
    each chunk of RK4 step maps, taken by a scan.

Contraction along the chain
    Transport from product inputs is a tensor network with one wire per
    site: its input, the closed-form idle channel over each gap between
    its gates (the idle channels form a semigroup), its gates in slot
    order, then a trace, or an open leg for a readout site. Each gate is
    its cached slot map read as a (4, 4, 4, 4) tensor.
    :func:`evolve_lindblad_product` cuts that network by site instead of
    by time (Markov & Shi, SIAM J. Comput. 38, 963 (2008)): sites join
    one frontier tensor in index order, a gate's first site brings in the
    whole gate and its second site closes the gate's legs. On the
    transport circuits the frontier never exceeds 1024 entries, so the
    cost is linear in the length.

Pulses are truncated to their slot. Whether a grid point carries drive is
decided by its step index (the slot-end point never does), so results do
not depend on how accumulated step times round near the slot edge.

Trace is monitored, never renormalised: drift beyond ``TRACE_ABORT_TOL``
(a NaN trace included) raises :class:`TraceDriftError`, and so does a
pair propagator that, while it is built, stops being finite, keeping its
trace row (Pauli 0's packed row stays e_0 to ``TRACE_ABORT_TOL``) or
bounded (no entry above ``1 / TRACE_ABORT_TOL``; a CPTP map has none
above 1). The step maps are searched; every later level of a build's
tree, a stream's scan and their chunk folds is certified by an a-priori
bound on its entries, or searched once that bound passes a tolerance, so
an unstable step grid aborts, at the level where a search of every level
would, before numpy overflows and before a stream hands out a step map.
The step generators are held to the same bound before the RK4 stages use
them, and a generator letter that is not finite (a decay rate near the
float limit) fails as not bounded, so no rate reaches a numpy overflow
either. A slot unitary more than 1e-9 away from unitary raises
:class:`NumericalError` when its map, or its stream chunk, is built.
Integrator bugs cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hamiltonians import (
    GateSpec,
    gate_channel_blocks,
    gate_eigensystem,
    ideal_gate_matrix,
    rescale_channel_params,
)
from .memo import BuildOnce
from .operators import check_state, fidelity_to_pure, pauli
from .pulses import PulseSchedule, gaussian

DEFAULT_STEPS_PER_SLOT = 1000
# At the default grid the noisy pair RK4 lies 2.5-4.7e-8 from its converged
# continuous-pulse limit, and the noiseless closed form 7.8-8.4e-8 from the
# exact unitary of the truncated pulse; past ~1000 steps both errors fall
# only at first order, because the pulse is cut at the slot edge, so grids
# finer than this ceiling buy nothing and are refused.
MAX_STEPS_PER_SLOT = 100 * DEFAULT_STEPS_PER_SLOT
TRACE_ABORT_TOL = 1e-6

_NOISE_KINDS = ("none", "dephasing", "amplitude_damping")


class NumericalError(RuntimeError):
    """An evolution broke a conserved quantity (trace or norm)."""


class TraceDriftError(NumericalError):
    """Raised when the integrated trace drifts beyond ``TRACE_ABORT_TOL``."""


@dataclass(frozen=True)
class NoiseModel:
    """Uniform single-site noise: ``sqrt(gamma) sigma_z`` (dephasing) or
    ``sqrt(gamma) sigma_-`` (amplitude damping) on every site. A zero rate
    is the noiseless model, kind ``"none"``."""

    kind: str
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.gamma < 0.0:
            raise ValueError("decay rate gamma must be non-negative")
        if self.kind == "none" or self.gamma == 0.0:
            object.__setattr__(self, "kind", "none")
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

    def __post_init__(self):
        if self.dt is not None and not (self.dt > 0.0):
            raise ValueError("time step must be positive")


def _resolve_steps(slot_duration: float, cfg: IntegratorConfig) -> tuple[int, float]:
    """Steps per slot and the actual dt; dt must divide the slot evenly."""
    if cfg.dt is None:
        return DEFAULT_STEPS_PER_SLOT, slot_duration / DEFAULT_STEPS_PER_SLOT
    steps = slot_duration / cfg.dt
    if not steps < MAX_STEPS_PER_SLOT + 0.5:  # an infinite or NaN count fails too
        raise ValueError(
            f"dt={cfg.dt} would take more than {MAX_STEPS_PER_SLOT} steps "
            f"for the slot duration {slot_duration}"
        )
    n = int(round(steps))
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
    slot starting at 0, and ``dt``. ``params`` holds one (A, W) pair per
    channel, shape ``(C, 2)``, or a batch of them, shape ``(B, C, 2)``; the
    samples are one contiguous row per channel, shape ``(C, n_steps)`` or
    ``(B, C, n_steps)``, with every pair rescaled to the slot by
    ``rescale_channel_params``. The slot-end sample is zero: pulses are
    truncated to ``[0, slot)``."""
    amplitude, width, center = rescale_channel_params(params, 0.0, slot_duration)
    dt = slot_duration / n_steps
    m = np.arange(1, n_steps + 1)
    ts, inside = dt * m, m < n_steps
    return gaussian(ts, amplitude, width, center) * inside, dt


def discrete_channel_areas(
    params,
    slot_duration: float = 1.0,
    n_steps: int = DEFAULT_STEPS_PER_SLOT,
) -> np.ndarray:
    """Right-endpoint pulse areas on the step grid, one per (A, W) channel,
    shape ``(C,)`` or, for a batch of parameters, ``(B, C)``: exactly what a
    product of per-step exponentials accumulates."""
    samples, dt = _channel_samples(params, slot_duration, n_steps)
    return np.sum(samples, axis=-1) * dt


def _eigen_unitary(kind: str, areas) -> np.ndarray:
    """``V exp(-i sum_i S_i d_i) V^dag``; ``areas`` has one row per channel,
    and the rows may carry further axes (a batch, or the steps of a slot),
    giving one 4x4 unitary per entry."""
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
    holds one (A, W) pair per channel, as in ``GateSpec``, or a ``(B, C,
    2)`` batch of them, giving ``(B, 4, 4)``. Each batch entry is computed
    exactly as it would be alone."""
    areas = discrete_channel_areas(params, slot_duration, n_steps)
    return _eigen_unitary(kind, np.moveaxis(areas, -1, 0))


# ---------------------------------------------------------------------------
# Noisy slots: exact factorisation into pair propagators and idle channels

_I4 = np.eye(4, dtype=complex)


def _kron4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of 4x4 matrices (or of stacks, pairwise) without its overhead."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*a.shape[:-2], 16, 16)


def _hamiltonian_superop(h4: np.ndarray) -> np.ndarray:
    # Row-major vec: vec(A X B) = (A kron B^T) vec(X).
    return -1j * (_kron4(h4, _I4) - _kron4(_I4, h4.T))


def _dissipator_superop(l4: np.ndarray) -> np.ndarray:
    ldl = l4.conj().T @ l4
    return (
        _kron4(l4, l4.conj())
        - 0.5 * _kron4(ldl, _I4)
        - 0.5 * _kron4(_I4, ldl.T)
    )


# Pauli-transfer basis: column 4a + b is the row-major vec(P_a kron P_b) / 2
# over P = (I, X, Y, Z). It is unitary, and a map that preserves
# Hermiticity is real in it, with first row e_0 when it preserves trace.
_PAULI_BASIS = [pauli(k) for k in ("identity", "x", "y", "z")]
_PTM = np.array([np.kron(a, b).reshape(16) / 2 for a in _PAULI_BASIS for b in _PAULI_BASIS]).T
_PTM_INV = _PTM.conj().T
_I16 = np.eye(16, dtype=complex)
# Steps per batch of step maps: bounds a build's transient memory (~4.7 MiB
# at 20 000 steps, ~1 MiB of it pulse samples, against ~230 MiB at once).
PAIR_CHUNK_STEPS = 256
# RK4 weights of the workspace rows (hk_4, hk_1, hk_2, hk_3)
_RK4_WEIGHTS = np.array([1.0, 1.0, 2.0, 2.0]) / 6.0


def _pack_blocks(pattern: np.ndarray) -> np.ndarray:
    """The packed layout of a 16x16 nonzero pattern, as a ``(k, b)`` array
    of Pauli-transfer indices: the pattern's connected components packed
    first-fit, largest first, into ``k = 16 / b`` blocks of the smallest
    size b of 4, 8 and 16 that holds them. Each block is in ascending
    order, so a packed product sums its terms in the order of the 16x16
    one, and the block holding Pauli 0 comes first, so Pauli 0's row is
    packed row ``(0, 0)``."""
    reach = pattern | pattern.T | np.eye(16, dtype=bool)
    for _ in range(4):  # paths of up to 16 links
        reach = reach.astype(np.int64) @ reach > 0
    components = sorted({tuple(np.flatnonzero(row)) for row in reach}, key=lambda c: (-len(c), c))
    for b in (4, 8, 16):
        blocks = [[] for _ in range(16 // b)]
        for component in components:
            block = next((c for c in blocks if len(c) + len(component) <= b), None)
            if block is None:
                break
            block.extend(component)
        else:
            return np.array(sorted(sorted(c) for c in blocks))


def _packed_positions(blocks: np.ndarray) -> np.ndarray:
    """The row-major position in a flattened 16x16 map of each entry of the
    packed ``(k, b, b)`` blocks."""
    return (16 * blocks[:, :, None] + blocks[:, None, :]).reshape(-1)


@lru_cache(maxsize=64)
def _pair_letters(kind: str, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The generator letters of one driven pair in the real Pauli-transfer
    basis (the dissipator sum, then each channel's drive superoperator),
    the largest entry of each, and their ``(k, b)`` layout from
    :func:`_pack_blocks` over the letters' exact nonzeros. Each letter is
    one row of its ``(k, b, b)`` blocks, flattened. All three are
    read-only, and cached by ``(kind, noise)``.

    Every letter maps each block into itself, and so does every sum and
    product of them, so the entries a packed map leaves out are exactly
    zero. A letter that is not finite raises :class:`TraceDriftError` as
    not bounded, and a generator that does not preserve Hermiticity has an
    imaginary part here, beyond 1e-12 of its letter's largest entry, and
    raises :class:`NumericalError`; a failed build is not cached, so every
    call raises again.
    """
    blocks = gate_channel_blocks(kind)
    constant = np.zeros((16, 16), dtype=complex)
    jump = noise.jump_block()
    # a rate near the float limit overflows here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if jump is not None:
            for l4 in (np.kron(jump, np.eye(2)), np.kron(np.eye(2), jump)):
                constant += noise.gamma * _dissipator_superop(l4)
        letters = [constant] + [_hamiltonian_superop(b) for b in blocks]
        letters = _PTM_INV @ np.array(letters) @ _PTM
    if not np.isfinite(letters).all():
        raise TraceDriftError(
            f"the {kind} pair propagator is not bounded (a generator letter is not finite)"
        )
    imag = np.max(np.abs(letters.imag), axis=(1, 2))
    if not np.all(imag <= 1e-12 * np.max(np.abs(letters), axis=(1, 2))):
        raise NumericalError(
            f"the {kind} pair generator does not preserve Hermiticity "
            f"(imaginary part {np.max(imag):.3e} in the Pauli-transfer basis)"
        )
    layout = _pack_blocks(np.any(letters.real != 0.0, axis=0))
    letters = letters.real.reshape(len(letters), 256)[:, _packed_positions(layout)]
    letter_sizes = np.max(np.abs(letters), axis=1)
    for a in (letters, letter_sizes, layout):
        a.flags.writeable = False
    return letters, letter_sizes, layout


def _pair_step_maps(kind, params, noise, duration, n_steps):
    """The real RK4 step maps of one driven pair across one slot, minus the
    identity, in the packed Pauli-transfer layout of :func:`_pair_letters`,
    yielded in chunks of at most ``PAIR_CHUNK_STEPS`` as ``(steps, k, b,
    b)`` arrays. Each chunk lives in a workspace that the next chunk
    overwrites.

    Every chunk's step generators pass :func:`_check_step_generators`
    before the RK4 stages use them. Each step samples the drive at its
    start, midpoint and end (the last step ends on the slot edge, where the
    truncated pulse is already off), and its map is the RK4 stages applied
    to the identity.
    """
    amplitude, width, center = rescale_channel_params(params, 0.0, duration)
    letters, letter_sizes, layout = _pair_letters(kind, noise)
    k, b = layout.shape

    h = duration / n_steps
    size = min(n_steps, PAIR_CHUNK_STEPS)
    # Coefficients of (L_0, L_c...) for h g at each step's end, midpoint and
    # start; the drive's are sampled over the whole slot at once.
    steps = np.arange(n_steps)
    t0 = steps * h
    samples = (
        h * gaussian(t0 + h, amplitude, width, center) * (steps < n_steps - 1),
        h * gaussian(t0 + 0.5 * h, amplitude, width, center),
        h * gaussian(t0, amplitude, width, center),
    )
    coefs = np.full((3, size, len(letters)), h)
    # One workspace serves every chunk. The GEMM fills rows 0-2 with h g_4,
    # h g_m and h g_1 = hk_1; hk_2 and hk_3 go to rows 3-4, and hk_4 to row
    # 1 once h g_m is spent, so one GEMV over rows 1-4 combines the stages.
    work = np.empty((5, size, k, b, b))
    x = np.empty((size, k, b, b))
    eye = np.eye(b)
    for first in range(0, n_steps, size):
        n = min(size, n_steps - first)
        for coef, sample in zip(coefs, samples):
            coef[:n, 1:] = sample[:, first : first + n].T
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            np.matmul(coefs[:, :n], letters, out=work[:3, :n].reshape(3, n, -1))
        # sum_c |coef_c| max|L_c| bounds every entry of h g: only a chunk over
        # the bound is searched entry by entry (searching every chunk cost ~15 %
        # of a build)
        if not np.max(np.abs(coefs[:, :n]) @ letter_sizes) <= 1.0 / TRACE_ABORT_TOL:
            _check_step_generators(kind, work[:3, :n])
        hg4, hgm, hk1, hk2, hk3 = work[:, :n]
        hk4 = hgm
        # the RK4 stages applied to the identity: hk_2 = h g_m (I + hk_1 / 2),
        # hk_3 = h g_m (I + hk_2 / 2), hk_4 = h g_4 (I + hk_3)
        stages = ((hgm, hk1, 0.5, hk2), (hgm, hk2, 0.5, hk3), (hg4, hk3, 1.0, hk4))
        for g, prev, scale, out in stages:
            np.multiply(prev, scale, out=x[:n])
            np.add(x[:n], eye, out=x[:n])
            np.matmul(g, x[:n], out=out)
        # the step maps minus the identity, (hk_1 + 2 hk_2 + 2 hk_3 + hk_4) / 6
        np.matmul(_RK4_WEIGHTS, work[1:, :n].reshape(4, -1), out=x[:n].reshape(-1))
        yield x[:n]


def _check_step_generators(kind: str, hg: np.ndarray):
    """The step generators ``h g`` must be finite and have no entry above
    ``1 / TRACE_ABORT_TOL``, the bound :func:`_check_pair_maps` holds the
    step maps to. Checked before the RK4 stage products, which cannot
    overflow below it."""
    size = max(hg.max(), -hg.min())
    if not size <= 1.0 / TRACE_ABORT_TOL:  # a NaN generator fails too
        raise TraceDriftError(
            f"the {kind} pair propagator is not bounded "
            f"(a step generator entry {size:.3e})"
        )


def _check_pair_maps(kind: str, d: np.ndarray) -> tuple[float, float]:
    """Every real Pauli-transfer map ``I + d`` of the packed stack ``d``
    must keep Pauli 0's row (packed row ``(0, 0)``) at e_0 (trace
    preservation) and stay finite and bounded. The entries left out of the
    packing are exactly zero, so the packed blocks decide both. A CPTP map
    has entries of modulus at most 1; an unstable step grid grows them
    geometrically, so no entry of ``d`` may pass ``1 / TRACE_ABORT_TOL``.
    Without the bound such a grid would only show once numpy overflows: in
    this basis the trace row of every step map stays at e_0, so a drifting
    trace no longer gives it away. Returns the stack's trace-row error and
    largest entry, the bound that :func:`_certify` carries on."""
    error = np.max(np.abs(d[..., 0, 0, :]))
    size = max(d.max(), -d.min())
    if not error <= TRACE_ABORT_TOL:  # a NaN map fails too
        raise TraceDriftError(
            f"the {kind} pair propagator is not trace-preserving (error {error:.3e})"
        )
    if not size <= 1.0 / TRACE_ABORT_TOL:
        raise TraceDriftError(
            f"the {kind} pair propagator is not bounded "
            f"(an entry {size:.3e} away from the identity's)"
        )
    return error, size


def _then_bound(b: int, first: tuple, next_: tuple) -> tuple[float, float]:
    """A bound on the trace-row error and the largest entry of
    :func:`_then`'s computed entries, over ``b x b`` blocks, from such
    bounds on ``d_first`` and ``d_next``: the a-priori inner-product bound
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    §3.1), whose rounding factor for b + 2 terms lies far below 1 + 1e-12."""
    (e_first, s_first), (e_next, s_next) = first, next_
    return (
        (b * e_next * s_first + e_first + e_next) * (1.0 + 1e-12),
        (b * s_next * s_first + s_first + s_next) * (1.0 + 1e-12),
    )


def _certify(kind: str, d: np.ndarray, first: tuple, next_: tuple) -> tuple[float, float]:
    """The bound of a stack ``d`` that :func:`_then` made from stacks
    bounded by ``first`` and ``next_``, while it stays within
    ``TRACE_ABORT_TOL`` and ``1 / TRACE_ABORT_TOL``; past either, ``d`` is
    searched by :func:`_check_pair_maps` and its measured values replace
    the bound. So a stack that fails is always searched, and a build aborts
    where, and as, a search of every level would."""
    bound = _then_bound(d.shape[-1], first, next_)
    if bound[0] <= TRACE_ABORT_TOL and bound[1] <= 1.0 / TRACE_ABORT_TOL:
        return bound
    return _check_pair_maps(kind, d)


def _then(d_first: np.ndarray, d_next: np.ndarray) -> np.ndarray:
    """``d`` of ``(I + d_next)(I + d_first)``, kept away from the identity
    so that near-identity steps multiply without losing digits."""
    out = d_next @ d_first
    out += d_first
    out += d_next
    return out


def _tree_product(kind: str, d: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """The product of the maps ``I + d[i]``, later steps on the left, as a
    pairwise tree, minus the identity, and its bound. The step maps are
    searched and every level is certified by bound or searched."""
    bound = _check_pair_maps(kind, d)
    while len(d) > 1:
        even = len(d) - len(d) % 2
        pairs = _then(d[0:even:2], d[1:even:2])
        d = np.concatenate([pairs, d[even:]]) if even < len(d) else pairs
        bound = _certify(kind, d, bound, bound)
    return d[0], bound


def _pair_rk4(
    kind: str,
    params: tuple[tuple[float, float], ...],
    noise: NoiseModel,
    duration: float,
    n_steps: int,
) -> np.ndarray:
    """16x16 row-major propagator of one driven pair (plus its two sites'
    noise) across one slot of ``n_steps`` fixed RK4 steps.

    Each chunk of packed step maps from :func:`_pair_step_maps` is
    multiplied by a pairwise tree, later steps on the left, and the chunk
    products are folded in order. Every level and every partial product
    is certified by bound or searched (:func:`_certify`), so a map that is
    not finite, trace-preserving and bounded raises
    :class:`TraceDriftError` before numpy can overflow.
    """
    total = None
    for d in _pair_step_maps(kind, params, noise, duration, n_steps):
        product, bound = _tree_product(kind, d)
        if total is not None:
            product = _then(total, product)
            bound = _certify(kind, product, total_bound, bound)
        total, total_bound = product, bound
    return _to_row_major(total, _pair_letters(kind, noise)[2])


def _scan_product(kind: str, d: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """The prefix products of the maps ``I + d[i]``, later steps on the
    left, minus the identity, by a Hillis-Steele scan (CACM 29, 1170
    (1986)) that overwrites ``d``, and their bound. The step maps are
    searched and every level is certified by bound or searched."""
    bound = _check_pair_maps(kind, d)
    span = 1
    while span < len(d):
        d[span:] = _then(d[:-span], d[span:])
        bound = _certify(kind, d, bound, bound)
        span *= 2
    return d, bound


def _to_row_major(d: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """The row-major map of each packed Pauli-transfer map ``I + d``: its
    blocks are scattered into a complex 16x16 stack at ``layout`` (the
    entries between them are zero), which takes the change of basis."""
    lead = d.shape[:-3]
    full = np.zeros((*lead, 256), dtype=complex)
    full[..., _packed_positions(layout)] = d.reshape(*lead, -1)
    full = full.reshape(*lead, 16, 16)
    np.matmul(_PTM @ full, _PTM_INV, out=full)
    full += _I16
    return full


_PAIR_PROP_CACHE = BuildOnce()


def _check_unitary(u: np.ndarray):
    # Each closed-form unitary is exact to roundoff, so anything past 1e-9
    # means a genuine defect.
    error = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - _I4))
    if not error <= 1e-9:
        raise NumericalError(f"unitary evolution lost normalisation ({error:.3e})")


def gate_superoperator(
    gate: GateSpec,
    noise: NoiseModel,
    duration: float = 1.0,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Row-major 16x16 map of one gate alone on its pair across one slot
    of ``duration``, under the pair's own noise: ``kron(U, U*)`` of the
    closed-form slot unitary when noiseless, else the pair RK4 propagator.
    Maps are cached by ``(kind, params, noise, duration, n_steps)``.
    """
    n_steps, _ = _resolve_steps(duration, cfg or IntegratorConfig())
    kind, params = gate.kind, gate.params

    def build():
        if noise.kind != "none":
            return _pair_rk4(kind, params, noise, duration, n_steps)
        u = slot_unitary(kind, params, duration, n_steps)
        _check_unitary(u)
        return _kron4(u, u.conj())

    return _PAIR_PROP_CACHE.get((kind, params, noise, float(duration), n_steps), build)


def gate_step_maps(
    gate: GateSpec, noise: NoiseModel, duration: float = 1.0, cfg: IntegratorConfig | None = None
):
    """The uncached row-major map of :func:`gate_superoperator` after every
    step, yielded as ``(times, maps)`` chunks of at most
    ``PAIR_CHUNK_STEPS`` steps, after a first ``([0], [I])``. A noiseless
    chunk is ``kron(U, U*)`` at the cumulative pulse areas and passes the
    unitary check; a noisy one is the product so far times its scanned RK4
    step maps, certified by bound or searched at every level, so no
    unstable map is handed out.
    """
    n_steps, dt = _resolve_steps(duration, cfg or IntegratorConfig())
    kind, params = gate.kind, gate.params
    yield np.zeros(1), np.eye(16, dtype=complex)[None]
    if noise.kind == "none":
        samples, step = _channel_samples(params, duration, n_steps)
        areas = np.cumsum(samples, axis=1) * step
        for first in range(0, n_steps, PAIR_CHUNK_STEPS):
            u = _eigen_unitary(kind, areas[:, first : first + PAIR_CHUNK_STEPS])
            _check_unitary(u)
            yield dt * np.arange(first + 1, first + len(u) + 1), _kron4(u, u.conj())
        return
    h, total, first = duration / n_steps, None, 0
    for d in _pair_step_maps(kind, params, noise, duration, n_steps):
        prefix, bound = _scan_product(kind, d)
        if total is not None:
            prefix = _then(total, prefix)
            bound = _certify(kind, prefix, total_bound, bound)
        m = np.arange(first, first + len(d))
        yield m * h + h, _to_row_major(prefix, _pair_letters(kind, noise)[2])
        total, total_bound, first = prefix[-1].copy(), bound, first + len(d)


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
    spec: GateSpec, noise: NoiseModel, tau: float, cfg: IntegratorConfig | None
) -> np.ndarray:
    """A gate's cached slot map (:func:`gate_superoperator`) as a
    ``(4, 4, 4, 4)`` tensor with legs (out_a, out_b, in_a, in_b), one
    row-major 2x2 leg per site of ``spec.qubits``."""
    phi = gate_superoperator(spec, noise, tau, cfg)
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
    states = [np.asarray(s, dtype=complex) for s in site_states]
    n = len(states)
    keep = tuple(int(s) for s in keep)
    if len(set(keep)) != len(keep) or any(not 1 <= s <= n for s in keep):
        raise ValueError("keep must list distinct sites of the chain")
    for state in states:
        if state.shape != (2, 2):
            raise ValueError("site states must be 2x2 density matrices")
        _check_trace(state, "in the initial state")
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
        g = _gate_tensor(spec, noise, tau, cfg)
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
    the density matrix of the normalised 2-qubit input goes through the
    gate's cached slot map (:func:`gate_superoperator`), and the result is
    compared with the ideal gate output.
    """
    if not (alpha > 0.0):
        raise ValueError("duration factor alpha must be positive")
    psi0 = check_state(np.asarray(input_state, dtype=complex))
    if psi0.shape != (4,) or gate.qubits != (1, 2):
        raise ValueError("gate_fidelity runs one gate on qubits (1, 2) of a 2-qubit input")
    phi = gate_superoperator(gate, noise, alpha, cfg)
    rho = (phi @ np.outer(psi0, psi0.conj()).reshape(16)).reshape(4, 4)
    _check_trace(rho, "in the final state")
    return fidelity_to_pure(rho, ideal_gate_matrix(gate.kind) @ psi0)
