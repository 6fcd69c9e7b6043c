"""Derivative-free pulse calibration for single-slot SWAP/CNOT gates.

The objective is the mean infidelity over the five calibration states
``{|00>, |01>, |10>, |11>, (|00>+|01>+|10>+|11>)/2}`` after noiseless
evolution across one slot; the superposition state pins the relative
phases, which population-only checks would miss.

The objective scores :func:`spinchain.dynamics.slot_unitary`, the same
closed-form slot unitary ``V exp(-i sum_i S_i d_i) V^dag`` that noiseless
evolution applies, so a calibrated gate is exactly the gate the
simulator runs.

The optimum is a one-parameter family — only the pulse area is pinned
(SWAP: pi/4 + k*pi/2; CNOT channels: area sum = 0 and difference = pi/2,
both mod pi) — so results report areas alongside raw parameters, and
multi-start Nelder-Mead is used to cope with the periodic local optima.
The starts advance in lockstep (:func:`_lockstep_nelder_mead`): each
round scores every start's trial points in one batched slot unitary, and
each start still follows, bit for bit, the path it would follow alone.
The calibrated bank that transport uses (:func:`calibrated_gate_params`)
is that search's polish of the stock parameters, shipped as literals.

The starts are a scrambled Sobol sequence (Joe & Kuo, SIAM J. Sci.
Comput. 30, 2635 (2008)) with random linear-matrix scrambling and a
digital shift (Matoušek, J. Complexity 14, 527 (1998)), generated here by
:func:`_sobol_points`. It reproduces ``scipy.stats.qmc.Sobol(d,
scramble=True, seed=seed).random_base2(m)`` bit for bit, and a test pins
it to scipy, but the package itself imports no scipy. Its scramble bits
are those of ``np.random.default_rng(seed)``, drawn by :func:`_pcg64_bits`
from numpy's SeedSequence and PCG64 (O'Neill, HMC-CS-2014-0905 (2014))
in integer arithmetic, so calibration never loads ``numpy.random``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import slot_unitary
from .hamiltonians import (
    DEFAULT_CNOT_COUPLING_PARAMS,
    DEFAULT_CNOT_LOCAL_PARAMS,
    DEFAULT_SWAP_PARAMS,
    GATE_KINDS,
    ideal_gate_matrix,
)

SUCCESS_OBJECTIVE = 1e-5

# |00>, |01>, |10>, |11>, and their uniform superposition.
CALIBRATION_STATES = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.5, 0.5],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class CalibrationProblem:
    """Which gate to calibrate and where the parameters may live."""

    kind: str
    amplitude_bounds: tuple[float, float] = (0.0, 50.0)  # lower bound open
    width_bounds: tuple[float, float] = (1e-4, 1.0)

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @property
    def n_channels(self) -> int:
        return 1 if self.kind == "swap" else 2

    @property
    def n_params(self) -> int:
        return 2 * self.n_channels

    def parameter_pairs(self, params) -> tuple[tuple[float, float], ...]:
        params = tuple(float(p) for p in params)
        if len(params) != self.n_params:
            raise ValueError(
                f"{self.kind} calibration takes {self.n_params} parameters"
            )
        return tuple(
            (params[2 * c], params[2 * c + 1]) for c in range(self.n_channels)
        )


@dataclass(frozen=True)
class CalibrationResult:
    kind: str
    params: tuple[float, ...]
    objective_value: float
    per_state_fidelities: tuple[float, ...]
    areas: tuple[float, ...]
    success: bool
    seed_index: int
    n_evaluations: int


def analytic_channel_areas(
    pairs: tuple[tuple[float, float], ...]
) -> tuple[float, ...]:
    """Full-line analytic area ``A * sqrt(pi * W)`` of each (A, W) channel
    (units of hbar); slot rescaling leaves it unchanged."""
    return tuple(a * math.sqrt(math.pi * w) for a, w in pairs)


@lru_cache(maxsize=None)
def _calibration_targets(kind: str) -> np.ndarray:
    return (ideal_gate_matrix(kind) @ CALIBRATION_STATES.T).T


def per_state_fidelities(params, problem: CalibrationProblem) -> np.ndarray:
    """Fidelity with the ideal gate for each calibration state: ``params``
    of shape ``(n_params,)`` give ``(5,)``, a batch ``(B, n_params)`` gives
    ``(B, 5)``, each row exactly as that point gives alone."""
    params = np.asarray(params, dtype=float)
    if params.shape[-1:] != (problem.n_params,):
        raise ValueError(f"{problem.kind} calibration takes {problem.n_params} parameters")
    pairs = params.reshape(params.shape[:-1] + (problem.n_channels, 2))
    outs = np.swapaxes(slot_unitary(problem.kind, pairs) @ CALIBRATION_STATES.T, -1, -2)
    overlaps = np.sum(_calibration_targets(problem.kind).conj() * outs, axis=-1)
    return np.abs(overlaps) ** 2


def objective(params, problem: CalibrationProblem):
    """One minus the mean fidelity over the five calibration states, per
    point of ``params`` (see :func:`per_state_fidelities`)."""
    return 1.0 - np.mean(per_state_fidelities(params, problem), axis=-1)


def _lockstep_nelder_mead(f, starts, step, max_iter, diameter_tol, f_tol):
    """Nelder-Mead simplex descent (reflection 1, expansion 2, contraction
    0.5, shrink 0.5) from every row of ``starts`` ``(B, d)`` at once.

    The simplices are held as ``(B, d + 1, d)`` arrays and advance in
    lockstep. ``f`` maps ``(k, d)`` points to ``(k,)`` values; each round
    calls it on all reflections, then on all expansions and contractions,
    then on all shrink points. A start leaves the batch when its simplex
    diameter falls below ``diameter_tol`` or its best value below
    ``f_tol``, so every start follows exactly the path, and makes exactly
    the evaluations, it would make alone. Returns the best point, its
    value, and the iterations and evaluations of each start.
    """
    n_starts, d = starts.shape
    simplex = np.repeat(starts[:, None, :], d + 1, axis=1)
    axis = np.arange(d)
    simplex[:, axis + 1, axis] += step
    values = f(simplex.reshape(-1, d)).reshape(n_starts, d + 1)
    n_evaluations = np.full(n_starts, d + 1)
    iterations = np.full(n_starts, max(max_iter, 0))

    active = np.arange(n_starts)
    for iteration in range(1, max_iter + 1):
        x, fx = simplex[active], values[active]
        order = np.argsort(fx, axis=1, kind="stable")
        x = np.take_along_axis(x, order[..., None], axis=1)
        fx = np.take_along_axis(fx, order, axis=1)
        diameter = np.max(np.abs(x[:, 1:] - x[:, :1]), axis=(1, 2))
        done = (fx[:, 0] < f_tol) | (diameter < diameter_tol)
        iterations[active[done]] = iteration
        active, x, fx = active[~done], x[~done], fx[~done]
        if not active.size:
            break

        centroid = np.mean(x[:, :-1], axis=1)
        worst, f_worst = x[:, -1], fx[:, -1]
        reflected = centroid + (centroid - worst)
        f_reflected = f(reflected)
        expand = f_reflected < fx[:, 0]
        contract = ~expand & ~(f_reflected < fx[:, -2])
        expanded = centroid + 2.0 * (centroid - worst)
        toward = np.where((f_reflected < f_worst)[:, None], reflected, worst)
        contracted = centroid + 0.5 * (toward - centroid)
        trial = f(np.concatenate([expanded[expand], contracted[contract]]))
        n_expand = np.count_nonzero(expand)
        f_expanded, f_contracted = trial[:n_expand], trial[n_expand:]
        n_evaluations[active] += 1 + expand + contract

        # The worst vertex gives way to the reflection, or to the expansion
        # when that is better still, or to the contraction when that beats
        # min(f_reflected, f_worst) (Python's min, NaN order included); a
        # contraction that does not keeps the worst vertex and shrinks.
        new_x, new_f = reflected.copy(), f_reflected.copy()
        better = f_expanded < f_reflected[expand]
        rows = np.flatnonzero(expand)[better]
        new_x[rows], new_f[rows] = expanded[rows], f_expanded[better]
        rows = np.flatnonzero(contract)
        bound = np.where(f_worst[rows] < f_reflected[rows], f_worst[rows], f_reflected[rows])
        better = f_contracted < bound
        new_x[rows[better]], new_f[rows[better]] = contracted[rows[better]], f_contracted[better]
        shrink = rows[~better]
        new_x[shrink], new_f[shrink] = worst[shrink], f_worst[shrink]
        x[:, -1], fx[:, -1] = new_x, new_f
        if shrink.size:
            best = x[shrink, :1]
            x[shrink, 1:] = best + 0.5 * (x[shrink, 1:] - best)
            fx[shrink, 1:] = f(x[shrink, 1:].reshape(-1, d)).reshape(-1, d)
            n_evaluations[active[shrink]] += d
        simplex[active], values[active] = x, fx

    best = np.argsort(values, axis=1, kind="stable")[:, 0]
    rows = np.arange(n_starts)
    return simplex[rows, best], values[rows, best], iterations, n_evaluations


def nelder_mead(
    f,
    x0,
    step=None,
    max_iter: int = 5000,
    diameter_tol: float = 1e-10,
    f_tol: float = 1e-9,
):
    """Nelder-Mead simplex descent (reflection 1, expansion 2,
    contraction 0.5, shrink 0.5) of a scalar function ``f`` from one start:
    the one-start case of the lockstep loop that :func:`calibrate` runs.
    Deterministic for a given start.

    Stops when the simplex diameter falls below ``diameter_tol``, the best
    value falls below ``f_tol``, or after ``max_iter`` iterations. Returns
    ``(x_best, f_best, n_iterations, n_evaluations)``.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if step is None:
        step = 0.1 * np.maximum(np.abs(x0), 0.1)
    step = np.broadcast_to(np.asarray(step, dtype=float), x0.shape)
    x, fx, iterations, n_evaluations = _lockstep_nelder_mead(
        lambda points: np.array([f(p) for p in points], dtype=float),
        x0[None],
        step,
        max_iter,
        diameter_tol,
        f_tol,
    )
    return x[0], float(fx[0]), int(iterations[0]), int(n_evaluations[0])


def _bound_arrays(problem: CalibrationProblem):
    lo = np.tile([problem.amplitude_bounds[0], problem.width_bounds[0]], problem.n_channels)
    hi = np.tile([problem.amplitude_bounds[1], problem.width_bounds[1]], problem.n_channels)
    return lo, hi


# Sobol direction numbers: 30 bits; dimension 1 is all ones, and dimensions
# 2-4 are (primitive polynomial, initial numbers) from the Joe-Kuo table.
_SOBOL_BITS = 30
_SOBOL_POLYNOMIALS = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)))


# PCG64's 128-bit multiplier; numpy's SeedSequence hash and mix constants
# (INIT_A/B, MULT_A/B, MIX_MULT_L/R) are written where they are used.
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: int, mult: int = 0x931E8875) -> tuple[int, int]:
    """numpy's SeedSequence hash of one 32-bit word, and the next constant."""
    new = const * mult & _MASK32
    value = (value ^ const) * new & _MASK32
    return value ^ value >> 16, new


def _pcg64_bits(seed, n: int) -> np.ndarray:
    """The first ``n`` draws of ``np.random.default_rng(seed).integers(2,
    dtype=np.uint32)``, over any run of consecutive calls, as uint8.

    SeedSequence hashes the 32-bit words of ``seed`` into a mixed pool of 4
    and the pool into PCG64's 128-bit state and increment. PCG64 steps its
    LCG before each XSL-RR output, which holds two buffered 32-bit draws,
    low half first; Lemire's bounded draw of 2 (ACM TOMACS 29, 3 (2019))
    keeps the top bit of each.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> 32 * k & _MASK32 for k in range(max(1, (seed.bit_length() + 31) // 32))]
    pool, const = [], 0x43B0D7E5
    for i in range(4):
        value, const = _hashmix(words[i] if i < len(words) else 0, const)
        pool.append(value)
    # each pool word mixes into the other three, then each word past the
    # fourth into all four
    mixes = [(pool, i, j) for i in range(4) for j in range(4) if i != j]
    mixes += [(words, i, j) for i in range(4, len(words)) for j in range(4)]
    for source, i, j in mixes:
        value, const = _hashmix(source[i], const)
        value = 0xCA01F9DD * pool[j] - 0x4973F715 * value & _MASK32
        pool[j] = value ^ value >> 16
    state, const = [], 0x8B51F9DD
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, 0x58F38DED)
        state.append(value)
    seed_hi, seed_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
    out = bytearray()
    for _ in range((n + 1) // 2):
        state = (state * _PCG_MULT + inc) & _MASK128
        x, r = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> r | x << 64 - r) & _MASK64
        out.append(x >> 31 & 1)
        out.append(x >> 63)
    return np.frombuffer(out, dtype=np.uint8)[:n]


def _sobol_points(d: int, seed: int, m: int) -> np.ndarray:
    """The first ``2**m`` points of a ``d``-dimensional Sobol sequence with
    linear-matrix scrambling and a digital shift, drawn from
    :func:`_pcg64_bits` (the bits of ``np.random.default_rng(seed)``)
    exactly as scipy's ``qmc.Sobol`` draws them, so the two agree bit for
    bit."""
    if d > 1 + len(_SOBOL_POLYNOMIALS):
        raise ValueError(
            f"Sobol starts cover at most {1 + len(_SOBOL_POLYNOMIALS)} parameters"
        )
    bits = _SOBOL_BITS
    v = np.ones((d, bits), dtype=np.int64)
    for k, (poly, init) in enumerate(_SOBOL_POLYNOMIALS[: d - 1], start=1):
        degree = len(init)
        v[k, :degree] = init
        # Bratley-Fox recurrence: the polynomial's bits, highest first,
        # pick the earlier numbers XORed in, each shifted by its distance
        for j in range(degree, bits):
            new = v[k, j - degree]
            for i in range(1, degree + 1):
                if (poly >> (degree - i)) & 1:
                    new ^= v[k, j - i] << i
            v[k, j] = new
    msb = bits - 1 - np.arange(bits)  # bit weights, most significant first
    v <<= msb  # number j has j + 1 bits, aligned at the top of the word
    # scipy draws the (d, bits) shift bits, then the (d, bits, bits) LMS bits
    draws = _pcg64_bits(seed, d * bits * (1 + bits))
    shift = draws[: d * bits].reshape(d, bits) @ (1 << np.arange(bits))
    lms = np.tril(draws[d * bits :].reshape(d, bits, bits))
    lms[:, range(bits), range(bits)] = 1
    # scrambled direction numbers: each LMS matrix times the direction bits
    v_bits = (v[:, None, :] >> msb[:, None]) & 1
    scrambled = (1 << msb) @ ((lms @ v_bits) & 1)
    # point i XORs onto the shift the numbers picked by the bits of Gray(i)
    i = np.arange(2**m)
    gray = ((i ^ (i >> 1))[:, None, None] >> np.arange(bits)) & 1
    points = shift ^ np.bitwise_xor.reduce(gray * scrambled, axis=-1)
    return points / 2.0**bits


def _stock_params(kind: str) -> np.ndarray:
    """The stock (A, W) parameters of a gate kind as one flat vector."""
    if kind == "swap":
        return np.array(DEFAULT_SWAP_PARAMS, dtype=float)
    return np.array(DEFAULT_CNOT_LOCAL_PARAMS + DEFAULT_CNOT_COUPLING_PARAMS, dtype=float)


def default_seeds(
    problem: CalibrationProblem, rng_seed: int = 0, count: int = 16
) -> list[np.ndarray]:
    """Quasi-random starts within bounds, plus the stock parameters.

    The starts are the first ``count`` points of :func:`_sobol_points`
    (seeded by ``rng_seed``), scaled into the box in the operation order of
    ``scipy.stats.qmc.scale``, so they equal the scipy composition exactly.
    An empty box raises ``ValueError``.
    """
    lo, hi = _bound_arrays(problem)
    # keep starts away from the open amplitude lower bound, but never past
    # the upper bound when the user passes a very narrow box
    sample_lo = np.maximum(lo, np.minimum(1e-3, lo + 0.1 * (hi - lo)))
    if not np.all(sample_lo < hi):
        raise ValueError(f"{problem.kind} calibration bounds are empty")
    m = max(1, int(math.ceil(math.log2(max(count, 2)))))
    points = _sobol_points(problem.n_params, rng_seed, m)[:count]
    return list(points * (hi - sample_lo) + sample_lo) + [_stock_params(problem.kind)]


def calibrate(
    problem: CalibrationProblem,
    seeds=None,
    rng_seed: int = 0,
    max_iter: int = 5000,
    diameter_tol: float = 1e-10,
    f_tol: float = 1e-9,
) -> CalibrationResult:
    """Multi-start Nelder-Mead over the pulse parameters.

    Every start runs its own simplex descent, and all of them advance in
    lockstep, each round scoring its trial points in one batched
    :func:`~spinchain.dynamics.slot_unitary` (see
    :func:`_lockstep_nelder_mead`); a point outside the box scores ``1 +``
    its distance from it instead. Deterministic for fixed
    ``seeds``/``rng_seed``; the best start wins, ties broken by seed order,
    and ``n_evaluations`` counts the evaluations of every start. A best
    objective at or above ``SUCCESS_OBJECTIVE`` is reported as a failure
    (with the best-found parameters still attached).
    """
    if seeds is None:
        seeds = default_seeds(problem, rng_seed)
    seeds = [np.asarray(s, dtype=float) for s in seeds]
    if not seeds:
        raise ValueError("calibration needs at least one seed")
    if any(s.shape != (problem.n_params,) for s in seeds):
        raise ValueError(f"{problem.kind} calibration takes {problem.n_params} parameters")
    lo, hi = _bound_arrays(problem)

    def penalised(x):
        excess = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        pen = np.sum(excess, axis=-1)
        values = 1.0 + pen
        scored = ~(pen > 0.0)
        if scored.any():
            values[scored] = objective(x[scored], problem)
        return values

    x, fx, _, n_evaluations = _lockstep_nelder_mead(
        penalised,
        np.clip(seeds, lo + 1e-12, hi),
        0.05 * (hi - lo),
        max_iter,
        diameter_tol,
        f_tol,
    )
    seed_index = 0
    for index in range(1, len(seeds)):
        if fx[index] < fx[seed_index]:
            seed_index = index

    x_best, f_best = x[seed_index], float(fx[seed_index])
    fids = per_state_fidelities(x_best, problem)
    return CalibrationResult(
        kind=problem.kind,
        params=tuple(float(p) for p in x_best),
        objective_value=f_best,
        per_state_fidelities=tuple(float(f) for f in fids),
        areas=analytic_channel_areas(problem.parameter_pairs(x_best)),
        success=bool(f_best < SUCCESS_OBJECTIVE),
        seed_index=seed_index,
        n_evaluations=int(np.sum(n_evaluations)),
    )


# The stock parameters of each gate kind polished to simplex convergence:
# calibrate(CalibrationProblem(kind), seeds=[_stock_params(kind)], f_tol=0.0).
# A test reruns that polish and holds these literals to it bit for bit, so
# a change to the objective or the simplex loop must pin them again.
_POLISHED_BANK = {
    "swap": ((9.345621176685896, 0.02023283057225373),),
    "cnot": (
        (9.403704105271292, 0.01998365843415007),
        (3.125149002873353, 0.02010430107152058),
    ),
    "cnot_rotated": (
        (9.52144106647675, 0.019492493412941903),
        (3.014619500635584, 0.021605594057166614),
    ),
}


@lru_cache(maxsize=None)
def calibrated_gate_params(kind: str) -> tuple[tuple[float, float], ...]:
    """Process-wide calibrated (A, W) pairs for a gate kind.

    The stock parameters polished to simplex convergence (``f_tol=0``),
    giving per-gate infidelities far below the budget of the longest
    transport circuits. The polish is deterministic, so its result ships
    as literals (``_POLISHED_BANK``) instead of being rerun in every
    interpreter.
    """
    if kind not in _POLISHED_BANK:
        raise ValueError(f"unknown gate kind {kind!r}")
    return _POLISHED_BANK[kind]
