"""Time evolution: closed-form unitary slots and pair propagators.

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
    The step maps of every case on one step grid come from one series in
    the duration and the decay rate. A stretched gate keeps its pulse
    shapes in rescaled time s = t / alpha, so each step generator ``h g``
    is the unit slot's drive plus the dissipator sum times z = h gamma
    scale, where the dissipator is normalised at gamma = 1 and scale is
    its largest entry. RK4's step map minus the identity is a fixed
    polynomial in its three stage generators (Hairer, Norsett & Wanner,
    Solving ODEs I, §II.1); expanded over words of the letters and grouped
    by their number p of dissipator letters, it is ``sum_p z^p Q_p``, p =
    0..4, and ``Q_p`` depends only on the kind, parameters, noise kind and
    step count. The letters and their word tables are built once per
    (kind, noise kind), at rate 1, and a case's rate enters only its z
    (:func:`_pair_z`). Per chunk of ``PAIR_CHUNK_STEPS``
    steps, one small GEMM per power gives the ``Q_p`` from the steps' word
    coefficients; each case then takes one GEMV for its own step maps.
    Each chunk holds its steps in one layout, bit-reversed and padded to
    a power of two with steps whose coefficients are all zero, so their
    step maps are exactly 0, the identity. A build multiplies them by a
    pairwise tree (Blelloch, CMU-CS-90-190) whose levels multiply the
    contiguous halves of the last, and cover the same runs of steps, with
    the same products, as a tree in time order; a stream gathers them
    back into time order for its scan. A map's bits depend only on its
    own z, so a map built in a row of cases equals its build alone. Maps
    are carried as their difference from the identity, so near-identity
    steps multiply without losing digits, and scattered into the real 16x16
    map only at the end. Sums and products of block-diagonal maps stay
    block-diagonal, so the entries left out are exactly zero and the packed
    build equals the 16x16 one bit for bit.

Single gates
    A slot map is a real 16x16 Pauli-transfer matrix, index 4a + b with a
    the Pauli on the gate's first site, acting on a pair's Pauli vector
    (:func:`_pauli_vector`). :func:`gate_superoperators` is its one builder,
    for a gate alone on its pair, and :func:`gate_superoperator` its
    one-case call: ``kron(U, U*)`` of the slot unitary when noiseless, else
    one pair RK4 row per noise kind and step count, and every noiseless
    map comes from one eigenbasis kernel, :func:`_unitary_maps`. Maps
    are cached by ``(kind, params, noise, duration, n_steps)``: an explicit
    ``dt`` and the default grid share a build when they give the same step
    count. A row names its failures per case, so a bad case neither breaks
    up its row nor is built twice. :func:`gate_fidelity` and transport
    (:mod:`spinchain.circuits`) read these maps; the ``trace`` command
    reads :func:`gate_step_maps`, an uncached stream of the map after
    every step: the same kernel at cumulative areas, or the prefix
    products of each chunk of RK4 step maps, taken by a scan.

Pulses are truncated to their slot. Whether a grid point carries drive is
decided by its step index (the slot-end point never does), so results do
not depend on how accumulated step times round near the slot edge.

Trace is monitored, never renormalised: drift beyond ``TRACE_ABORT_TOL``
(a NaN trace included) raises :class:`TraceDriftError`. A pair build
checks each invariant where it is decided. Trace preservation is a
property of the generator letters: Pauli 0's row of each is exactly zero,
or :func:`_pair_words` refuses it, and it stays exactly zero through
every sum and product, so every pair map keeps its trace row at e_0. A
case whose step generators may pass ``1 / TRACE_ABORT_TOL`` (a decay rate
or an amplitude near the float limit included) fails as not bounded in
:func:`_pair_z`, before any series is built, so the series cannot
overflow. What is left is growth: an unstable step grid grows a pair
propagator's entries geometrically, while a CPTP map has none above 1.
Each result is checked once, where it is made (:func:`_check_pair_maps`):
a build's map, or a stream's chunk before it is handed out, with an entry
that is not finite or passes ``1 / TRACE_ABORT_TOL`` raises
:class:`TraceDriftError`. The products before that check run with numpy's
overflow silenced, and an overflow cannot hide there: each product adds
both factors in (:func:`_then`), and inf or NaN plus any number is never
finite, so it carries through every later level into the result. A grid
unstable within that bound is refused where a slot map is read, by a
single gate or by transport, at an entry above 1
(:func:`_check_map_entries`).
A slot unitary more than 1e-9 away from unitary raises
:class:`NumericalError` when its map, or its stream chunk, is built.
Integrator bugs cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hamiltonians import (
    GateSpec,
    gate_channel_blocks,
    gate_eigensystem,
    ideal_gate_matrix,
    rescale_channel_params,
)
from .operators import check_state, pauli
from .pulses import gaussian

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
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("decay rate gamma must be finite and non-negative")
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


def _check_trace(trace, where: str):
    drift = abs(trace.real - 1.0) + abs(trace.imag)
    if not drift <= TRACE_ABORT_TOL:  # a NaN trace fails too
        raise TraceDriftError(f"trace drifted by {drift:.3e} {where}")


def _check_map_entries(maps: np.ndarray, what: str):
    """A real Pauli-transfer map of a CPTP map has no entry of modulus above
    1, so an entry of ``maps`` past 1 + ``TRACE_ABORT_TOL`` (a NaN
    included) raises :class:`TraceDriftError`: an unstable step grid
    shows there, while the map's trace row may stay exact. ``what`` names
    the maps in the message."""
    size = max(maps.max(), -maps.min())
    if not size <= 1.0 + TRACE_ABORT_TOL:
        raise TraceDriftError(f"{what} has an entry {size:.3e} above 1, which no CPTP map has")


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
_PAULI_BASIS = np.array([pauli(k) for k in ("identity", "x", "y", "z")])
_PTM = np.array([np.kron(a, b).reshape(16) / 2 for a in _PAULI_BASIS for b in _PAULI_BASIS]).T
_PTM_INV = _PTM.conj().T
# Steps per chunk of pulse samples, series terms and step maps: bounds a
# build's transient memory at any step count. A chunk holds its steps in
# bit-reversed order, padded to a power of two, so a build's tree halves
# contiguous stacks. At the MAX_STEPS_PER_SLOT ceiling, with the word
# tables cached, tracemalloc peaks at 2.2 MiB for a cnot build and 3.7 MiB
# for a cnot_rotated one under amplitude damping, and at 3.9 MiB for a
# drained dephasing swap stream.
PAIR_CHUNK_STEPS = 256
# The powers z^p of the RK4 series, one per number of constant letters in a
# word of up to four letters
_POWERS = np.arange(5)


def _pauli_vector(rho: np.ndarray) -> np.ndarray:
    """The real vector ``tr(P rho)`` of Hermitian one-site or pair states."""
    basis = _PAULI_BASIS if rho.shape[-1] == 2 else 2.0 * _PTM.T.reshape(16, 4, 4)
    return np.einsum("aji,...ij->...a", basis, rho).real


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
    """The position in a flattened 16x16 map of each entry of the
    packed ``(k, b, b)`` blocks."""
    return (16 * blocks[:, :, None] + blocks[:, None, :]).reshape(-1)


@lru_cache(maxsize=8)
def _pair_words(kind: str, noise_kind: str) -> tuple:
    """The generator letters of one driven pair under one noise kind at
    rate 1, in the real Pauli-transfer basis, and the word tables of their
    RK4 series: ``(letters, tables, powers, scale, layout)``, all read-only,
    cached by ``(kind, noise_kind)`` and shared by every decay rate, which
    enters a build only through z (:func:`_pair_z`).

    The letters are the dissipator sum, then each channel's drive
    superoperator. A generator that does not preserve Hermiticity has an
    imaginary part here, beyond 1e-12 of its letter's largest entry, and
    raises :class:`NumericalError`, and one whose letters are not exactly
    zero on Pauli 0's row does not preserve trace and raises
    :class:`TraceDriftError`. Exactly, not to a tolerance: the letters are
    constant and their entries dyadic (Pauli matrices in the 1/2-scaled
    Pauli-transfer basis), so the row comes out exactly zero and stays so
    through every sum and product of a build. Letters that vary in time,
    or carry entries that round, would have to revisit this. ``layout`` is
    :func:`_pack_blocks` over the letters' exact nonzeros; every letter
    maps each block into itself, and so does every sum and product of
    them, so the entries a packed map leaves out are exactly zero. ``letters`` are the packed
    letters, each one row of its ``(k, b, b)`` blocks, flattened, with the
    dissipator sum divided by ``scale``, its largest entry (1 if it has
    none). Every product of 1 to 4 letters is a word, listed in degree
    order, each degree with the leftmost letter most significant, as
    :func:`_word_features` forms them. ``powers`` holds each word's number
    p of constant letters, in that order, and ``tables[p]`` the words with
    p, in that order, one flattened ``(k, b, b)`` row each. Tables that are
    not finite raise :class:`TraceDriftError` as not bounded. A failed
    build is not cached, so every call raises again.
    """
    constant = np.zeros((16, 16), dtype=complex)
    jump = NoiseModel(noise_kind, 1.0).jump_block()
    for l4 in (np.kron(jump, np.eye(2)), np.kron(np.eye(2), jump)):
        constant += _dissipator_superop(l4)
    letters = [constant] + [_hamiltonian_superop(b) for b in gate_channel_blocks(kind)]
    letters = _PTM_INV @ np.array(letters) @ _PTM
    imag = np.max(np.abs(letters.imag), axis=(1, 2))
    if not np.all(imag <= 1e-12 * np.max(np.abs(letters), axis=(1, 2))):
        raise NumericalError(
            f"the {kind} pair generator does not preserve Hermiticity "
            f"(imaginary part {np.max(imag):.3e} in the Pauli-transfer basis)"
        )
    if np.any(letters.real[:, 0] != 0.0):
        raise TraceDriftError(f"the {kind} pair generator is not trace-preserving")
    layout = _pack_blocks(np.any(letters.real != 0.0, axis=0))
    k, b = layout.shape
    letters = letters.real.reshape(len(letters), 256)[:, _packed_positions(layout)]
    scale = float(np.max(np.abs(letters[0]))) or 1.0
    letters[0] /= scale
    blocks = letters.reshape(len(letters), k, b, b)
    constant = (np.arange(len(letters)) == 0).astype(int)
    words, powers = [blocks], [constant]
    with np.errstate(all="ignore"):  # checked next
        for _ in range(len(_POWERS) - 2):
            words.append((blocks[:, None] @ words[-1][None]).reshape(-1, k, b, b))
            powers.append(np.add.outer(constant, powers[-1]).reshape(-1))
    words = np.concatenate(words).reshape(-1, k * b * b)
    if not np.isfinite(words).all():
        raise TraceDriftError(
            f"the {kind} pair propagator is not bounded (an RK4 word is not finite)"
        )
    powers = np.concatenate(powers)
    tables = tuple(words[powers == p] for p in _POWERS)
    for a in (letters, *tables, powers, layout):
        a.flags.writeable = False
    return letters, tables, powers, scale, layout


def _word_features(x: np.ndarray) -> np.ndarray:
    """The coefficient of every word of the RK4 series at each step, shape
    ``(words, steps)``, its words in :func:`_pair_words`' degree order,
    from the letters' coefficients in the stage generators G_1, G_m and G_4
    at the step's start, midpoint and end, ``x`` of shape ``(3, letters,
    steps)``.

    RK4's step map minus the identity is (G_1 + 4 G_m + G_4)/6 + (G_m G_1
    + G_m^2 + G_4 G_m)/6 + (G_m^2 G_1 + G_4 G_m^2)/12 + G_4 G_m^2 G_1/24
    (Hairer, Norsett & Wanner, Solving ODEs I, §II.1), and each G is the
    sum of its letters times their coefficients; expanding the products
    gives each word's coefficient.
    """
    x1, xm, x4 = x
    n = x.shape[-1]

    def outer(a, b):  # the words of a followed by those of b
        return (a[:, None] * b[None]).reshape(-1, n)

    mm = outer(xm, xm)
    mm1 = outer(mm, x1)
    return np.concatenate([
        (x1 + 4.0 * xm + x4) / 6.0,
        (outer(xm, x1) + mm + outer(x4, xm)) / 6.0,
        (mm1 + outer(x4, mm)) / 12.0,
        outer(x4, mm1) / 24.0,
    ])


def _series_terms(x, powers, tables, q):
    """Write each ``Q_p`` into ``q[p]``: the word features of the steps'
    letter coefficients ``x`` (:func:`_word_features`) of the words with p
    constant letters, ``features[powers == p]``, against those words,
    ``tables[p]``, one GEMM per power."""
    features = _word_features(x)
    for p, (table, out) in enumerate(zip(tables, q)):
        np.matmul(features[powers == p].T, table, out=out.reshape(len(out), -1))


def _pair_z(kind, params, noise: NoiseModel, duration, n_steps: int) -> float:
    """The coefficient z = h gamma scale of :func:`_pair_words`' constant
    letter in each step generator ``h g`` of one (noise, duration) case on
    an ``n_steps`` grid, or the error that case raises alone:
    ``ValueError`` for a duration the pulses cannot be rescaled to,
    :func:`_pair_words`' error for its noise kind, or
    :class:`TraceDriftError`, as not bounded, for a rate whose z overflows
    the float range or a case whose step generators may have an entry past
    ``1 / TRACE_ABORT_TOL``, the bound :func:`_check_pair_maps` holds each
    result to. Their entries are at most ``z + sum_c |A_c| max|L_c| /
    n_steps``, as the drive letters' coefficients are ``h gaussian`` on the
    unit slot, whose amplitudes are the A_c of ``params``; below that bound
    the series' powers of z and drive products cannot overflow."""
    rescale_channel_params(params, 0.0, float(duration))
    letters, _, _, scale, _ = _pair_words(kind, noise.kind)
    # Python floats: a product past the float range is inf, without a
    # numpy warning
    h = float(duration) / n_steps
    z = h * (float(noise.gamma) * scale)
    if not z < np.inf:
        raise TraceDriftError(
            f"the {kind} pair propagator is not bounded (z = h gamma scale = "
            f"{h:.3e} * {noise.gamma:.3e} * {scale:.3e} overflows the float range)"
        )
    sizes = np.max(np.abs(letters[1:]), axis=1)
    drive = sum(abs(float(a)) * float(size) for (a, _), size in zip(params, sizes))
    bound = z + drive / n_steps
    if not bound <= 1.0 / TRACE_ABORT_TOL:
        raise TraceDriftError(
            f"the {kind} pair propagator is not bounded "
            f"(a step generator entry may reach {bound:.3e})"
        )
    return z


@lru_cache(maxsize=16)
def _bit_reversed(size: int) -> np.ndarray:
    """The bit-reversal permutation of ``range(size)``, ``size`` a power of
    two: its first half holds the even entries and its second half the odd
    ones, each again bit-reversed."""
    perm = np.zeros(1, dtype=np.intp)
    while len(perm) < size:
        perm = np.concatenate([2 * perm, 2 * perm + 1])
    perm.flags.writeable = False
    return perm


class _SeriesChunk(NamedTuple):
    """One chunk of :func:`_pair_series`. Its steps sit in the bit-reversed
    order of the chunk padded to a power of two, and a padding step has
    all coefficients zero, so its step map is exactly 0 (the identity).
    ``time_order`` holds the position of each step in time order."""

    q: np.ndarray  # (5, pad, k, b, b): the Q_p
    time_order: np.ndarray
    d: np.ndarray  # the workspace of _pair_step_maps


def _pair_series(kind, params, noise_kind, n_steps):
    """The RK4 step maps of one driven pair on an ``n_steps`` grid as a
    series in the slot duration and the decay rate, shared by every
    (rate, duration) case of that grid and noise kind (see the module
    docstring), in :class:`_SeriesChunk` chunks of at most
    ``PAIR_CHUNK_STEPS`` steps, bit-reversed for :func:`_tree_product`. The
    constant letter's coefficient is 1 (0 on padding steps).

    The next chunk overwrites ``q`` and ``d``. The drive is sampled per
    chunk, on the unit slot, at each step's start, midpoint and end (the
    last step ends on the slot edge, where the truncated pulse is already
    off).
    """
    amplitude, width, center = rescale_channel_params(params, 0.0, 1.0)
    letters, tables, powers, _, layout = _pair_words(kind, noise_kind)
    k, b = layout.shape
    h = 1.0 / n_steps
    size = min(n_steps, PAIR_CHUNK_STEPS)
    # one workspace serves every chunk: a row per Q_p, then one for the
    # step maps
    work = np.empty((len(tables) + 1, (1 << (size - 1).bit_length()) * k * b * b))
    for first in range(0, n_steps, size):
        count = min(size, n_steps - first)
        pad = 1 << (count - 1).bit_length()
        perm = _bit_reversed(pad)
        q = work[:-1, : pad * k * b * b].reshape(-1, pad, k, b, b)
        d = work[-1, : pad * k * b * b].reshape(pad, k, b, b)
        steps = first + perm
        t0 = steps * h
        x = np.empty((3, len(letters), pad))
        x[:, 0] = 1.0
        x[0, 1:] = h * gaussian(t0, amplitude, width, center)
        x[1, 1:] = h * gaussian(t0 + 0.5 * h, amplitude, width, center)
        x[2, 1:] = h * gaussian(t0 + h, amplitude, width, center) * (steps < n_steps - 1)
        x[..., perm >= count] = 0.0
        _series_terms(x, powers, tables, q)
        yield _SeriesChunk(q, perm[:count], d)


def _pair_step_maps(chunk: _SeriesChunk, z: float) -> np.ndarray:
    """The RK4 step maps minus the identity of one chunk of
    :func:`_pair_series`, for the case whose constant letter has the
    coefficient ``z``: ``sum_p z^p Q_p``, one GEMV, as a ``(pad, k, b, b)``
    array in the chunk's workspace, which the next call overwrites. Its
    bits depend only on the chunk and on ``z``, which :func:`_pair_z` has
    held to the step-generator bound, so the GEMV cannot overflow.
    """
    np.matmul(z**_POWERS, chunk.q.reshape(len(chunk.q), -1), out=chunk.d.reshape(-1))
    return chunk.d


def _check_pair_maps(kind: str, d: np.ndarray):
    """Every real Pauli-transfer map ``I + d`` of the packed stack ``d``
    must be finite and bounded. The entries left out of the packing are
    exactly zero, so the packed blocks decide it. A CPTP map has entries of
    modulus at most 1; an unstable step grid grows them geometrically, so
    no entry of ``d`` may pass ``1 / TRACE_ABORT_TOL``. Without the bound
    such a grid would only show once the products overflow, as the trace
    row stays exactly at e_0."""
    size = max(d.max(), -d.min())  # NaN when any entry is
    if not size <= 1.0 / TRACE_ABORT_TOL:
        entry = (
            f"an entry {size:.3e} away from the identity's" if size < np.inf else "an entry is not finite"
        )
        raise TraceDriftError(f"the {kind} pair propagator is not bounded ({entry})")


def _then(d_first: np.ndarray, d_next: np.ndarray) -> np.ndarray:
    """``d`` of ``(I + d_next)(I + d_first)``, kept away from the identity
    so that near-identity steps multiply without losing digits. A zero
    factor gives the other one back. Both factors are added into the
    product, so an entry of either that is not finite leaves its product's
    entry at that position not finite: an overflow cannot pass a later
    level unseen."""
    out = d_next @ d_first
    out += d_first
    out += d_next
    return out


def _tree_product(d: np.ndarray) -> np.ndarray:
    """The product of the maps ``I + d[i]`` of a bit-reversed chunk of
    :func:`_pair_series`, later steps on the left, as a pairwise tree,
    minus the identity. The first half of each level holds the even
    entries of the level in time order and the second half the odd ones,
    so each level multiplies contiguous halves into the next, again
    bit-reversed: level L's entry holds the steps of the same run of 2^L
    as a tree in time order, and a padding step (exactly 0) leaves its
    partner as it is. The result is a new array, as ``d`` may be a
    workspace."""
    if len(d) == 1:
        d = d.copy()
    while len(d) > 1:
        half = len(d) // 2
        d = _then(d[:half], d[half:])
    return d[0]


def _pair_rk4(kind: str, params, noise_kind: str, zs: dict, n_steps: int, aborted: dict) -> list:
    """Real Pauli-transfer propagators of one driven pair (plus its two
    sites' noise of ``noise_kind``) across one slot of ``n_steps`` fixed
    RK4 steps, one per case of ``zs``, which maps each case's key to its z
    (:func:`_pair_z`). A case whose build aborts gets None in place of its
    map and its :class:`TraceDriftError` in ``aborted[key]``.

    Every chunk of :func:`_pair_series` serves every case: its step maps
    (:func:`_pair_step_maps`) are multiplied by a pairwise tree
    (:func:`_tree_product`), later steps on the left, and the chunk
    products are folded in order, with numpy's overflow silenced. Each
    case's final map is then checked once (:func:`_check_pair_maps`): a
    level that overflowed or grew past the bound shows there (see
    :func:`_then`). The series is the only thing the cases share, so each
    map's bits depend only on its own z: a build alone is a row of one.
    """
    totals = dict.fromkeys(zs)
    for chunk in _pair_series(kind, params, noise_kind, n_steps):
        with np.errstate(over="ignore", invalid="ignore"):  # the results are checked below
            for key, z in zs.items():
                product = _tree_product(_pair_step_maps(chunk, z))
                totals[key] = product if totals[key] is None else _then(totals[key], product)
    for key, d in totals.items():
        try:
            _check_pair_maps(kind, d)
        except TraceDriftError as error:
            aborted[key] = error
    layout = _pair_words(kind, noise_kind)[4]
    return [None if key in aborted else _unpacked(d, layout) for key, d in totals.items()]


def _scan_product(d: np.ndarray) -> np.ndarray:
    """The prefix products of the maps ``I + d[i]``, later steps on the
    left, minus the identity, by a Hillis-Steele scan (CACM 29, 1170
    (1986)) that overwrites ``d``."""
    span = 1
    while span < len(d):
        d[span:] = _then(d[:-span], d[span:])
        span *= 2
    return d


def _unpacked(d: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """The real 16x16 Pauli-transfer map ``I + d`` of each packed stack
    ``d``: its blocks scattered to ``layout``, exact zeros between them."""
    lead = d.shape[:-3]
    full = np.zeros((*lead, 256))
    full[..., _packed_positions(layout)] = d.reshape(*lead, -1)
    full[..., ::17] += 1.0
    return full.reshape(*lead, 16, 16)


_PAIR_PROP_CACHE: dict = {}


@lru_cache(maxsize=None)
def _eigen_weights(kind: str) -> np.ndarray:
    """The weights of :func:`_unitary_maps` for a gate kind, read-only. With
    ``V`` the kind's eigenbasis, ``kron(U, U*) = B diag(e_j e_k*) B^dag``,
    ``e = diag(V^dag U V)``, ``B = kron(V, V*)``: a map is Re(phases @ w),
    row m of w column m of A = _PTM_INV B times row m of A^dag, stored as
    the interleaved real and imaginary rows of one real GEMM."""
    v, _ = gate_eigensystem(kind)
    a = (_PTM_INV @ np.kron(v, v.conj())).T
    w = (a[:, :, None] * a.conj()[:, None, :]).reshape(16, 256)
    weights = np.stack([w.real, -w.imag], axis=1).reshape(32, 256)
    weights.flags.writeable = False
    return weights


def _unitary_maps(kind: str, u: np.ndarray) -> np.ndarray:
    """The real Pauli-transfer maps ``kron(U, U*)`` of a ``(..., 4, 4)``
    stack of the closed-form unitaries of a gate kind, which must pass the
    unitary check: the phases ``e_j e_k*`` of each, one real GEMM against
    :func:`_eigen_weights`."""
    # Each closed-form unitary is exact to roundoff, so anything past 1e-9
    # means a genuine defect.
    error = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - _I4))
    if not error <= 1e-9:
        raise NumericalError(f"unitary evolution lost normalisation ({error:.3e})")
    v, _ = gate_eigensystem(kind)
    e = np.sum(v.conj() * (u.reshape(-1, 4) @ v).reshape(u.shape), axis=-2)
    phases = (e[..., :, None] * e[..., None, :].conj()).reshape(-1, 16)
    return (phases.view(float) @ _eigen_weights(kind)).reshape(*u.shape[:-2], 16, 16)


def _map_key(gate: GateSpec, noise: NoiseModel, duration: float, n_steps: int) -> tuple:
    return gate.kind, gate.params, noise, float(duration), n_steps


def gate_superoperators(
    gate: GateSpec, noises, durations, cfg: IntegratorConfig | None = None
) -> list[np.ndarray]:
    """Real 16x16 Pauli-transfer maps of one gate alone on its pair across
    one slot, one per case of ``noises`` times ``durations``, noise by
    noise: :func:`_unitary_maps` of the closed-form slot unitary when
    noiseless, else the pair RK4 propagator. The only builder of these
    maps, cached by ``(kind, params, noise, duration, n_steps)``. Missing
    noisy maps are built first, one :func:`_pair_rk4` row per noise kind
    and step count, each equal to its build alone bit for bit; a case whose
    z (:func:`_pair_z`) or build fails is recorded with its error, the
    row's good maps are all cached, then the first case in order that
    fails raises its own error.
    """
    cfg = cfg or IntegratorConfig()
    cases = [(noise, duration) for noise in noises for duration in durations]
    rows: dict[tuple, dict] = {}
    failed = {}
    for noise, duration in cases:
        try:
            n_steps, _ = _resolve_steps(duration, cfg)
        except ValueError:
            continue  # raised in case order below
        key = _map_key(gate, noise, duration, n_steps)
        if noise.kind == "none" or key in _PAIR_PROP_CACHE:
            continue
        try:
            z = _pair_z(gate.kind, gate.params, noise, duration, n_steps)
        except (NumericalError, ValueError) as error:
            failed[key] = error
        else:
            rows.setdefault((noise.kind, n_steps), {})[key] = z
    for (noise_kind, n_steps), row in rows.items():
        maps = _pair_rk4(gate.kind, gate.params, noise_kind, row, n_steps, failed)
        _PAIR_PROP_CACHE.update((key, phi) for key, phi in zip(row, maps) if key not in failed)
    maps = []
    for noise, duration in cases:
        n_steps, _ = _resolve_steps(duration, cfg)
        key = _map_key(gate, noise, duration, n_steps)
        if key in failed:
            raise failed[key]
        if key not in _PAIR_PROP_CACHE:  # a noiseless map
            u = slot_unitary(gate.kind, gate.params, duration, n_steps)
            _PAIR_PROP_CACHE[key] = _unitary_maps(gate.kind, u)
        maps.append(_PAIR_PROP_CACHE[key])
    return maps


def gate_superoperator(
    gate: GateSpec, noise: NoiseModel, duration: float = 1.0, cfg: IntegratorConfig | None = None
) -> np.ndarray:
    """The map of one gate alone on its pair across one slot of
    ``duration``: :func:`gate_superoperators` of that one case."""
    (phi,) = gate_superoperators(gate, [noise], [duration], cfg)
    return phi


def gate_step_maps(
    gate: GateSpec, noise: NoiseModel, duration: float = 1.0, cfg: IntegratorConfig | None = None
):
    """The uncached map of :func:`gate_superoperator` after every step,
    yielded as ``(times, maps)`` chunks of at most ``PAIR_CHUNK_STEPS``
    steps, after a first ``([0], [I])``. A noiseless chunk is
    :func:`_unitary_maps` of the unitaries at the cumulative pulse areas; a
    noisy one is the product so far times its RK4 step maps,
    gathered into time order in the chunk's workspace and scanned, with
    numpy's overflow silenced, and each chunk is checked whole
    (:func:`_check_pair_maps`) before it is handed out, so no unstable map
    is.
    """
    n_steps, dt = _resolve_steps(duration, cfg or IntegratorConfig())
    kind, params = gate.kind, gate.params
    yield np.zeros(1), np.eye(16)[None]
    if noise.kind == "none":
        samples, step = _channel_samples(params, duration, n_steps)
        areas = np.cumsum(samples, axis=1) * step
        for first in range(0, n_steps, PAIR_CHUNK_STEPS):
            maps = _unitary_maps(kind, _eigen_unitary(kind, areas[:, first : first + PAIR_CHUNK_STEPS]))
            yield dt * np.arange(first + 1, first + len(maps) + 1), maps
        return
    z = _pair_z(kind, params, noise, duration, n_steps)
    layout = _pair_words(kind, noise.kind)[4]
    h, total, first = duration / n_steps, None, 0
    for chunk in _pair_series(kind, params, noise.kind, n_steps):
        d = _pair_step_maps(chunk, z)
        d[: len(chunk.time_order)] = d[chunk.time_order]
        with np.errstate(over="ignore", invalid="ignore"):  # checked next, before the yield
            d = _scan_product(d[: len(chunk.time_order)])
            if total is not None:
                d = _then(total, d)
        _check_pair_maps(kind, d)
        yield np.arange(first, first + len(d)) * h + h, _unpacked(d, layout)
        total, first = d[-1].copy(), first + len(d)


def _idle_superop(noise: NoiseModel, duration: float) -> np.ndarray:
    """Real 4x4 Pauli-transfer map of one site idling for ``duration``, in
    closed form; the idle channels form a semigroup, so any gap is one map."""
    if noise.kind == "dephasing":
        f = np.exp(-2.0 * noise.gamma * duration)
        return np.diag([1.0, f, f, 1.0])
    # amplitude damping: sigma_- = |1><0| drains |0>, so <Z> relaxes to -1
    e = np.exp(-noise.gamma * duration)
    r = np.exp(-0.5 * noise.gamma * duration)
    m = np.diag([1.0, r, r, e])
    m[3, 0] = e - 1.0
    return m


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
    the Pauli vector of the normalised 2-qubit input goes through the
    gate's cached slot map (:func:`gate_superoperator`), and its dot
    product with the ideal output's, over 4, is the fidelity. A slot map
    with an entry past 1 (:func:`_check_map_entries`) raises
    :class:`TraceDriftError`.
    """
    if not (alpha > 0.0):
        raise ValueError("duration factor alpha must be positive")
    psi0 = check_state(np.asarray(input_state, dtype=complex))
    if psi0.shape != (4,) or gate.qubits != (1, 2):
        raise ValueError("gate_fidelity runs one gate on qubits (1, 2) of a 2-qubit input")
    phi = gate_superoperator(gate, noise, alpha, cfg)
    _check_map_entries(phi, f"the {gate.kind} slot map")
    out = phi @ _pauli_vector(np.outer(psi0, psi0.conj()))
    _check_trace(out[0], "in the final state")
    target = ideal_gate_matrix(gate.kind) @ psi0
    return float(out @ _pauli_vector(np.outer(target, target.conj()))) / 4.0
