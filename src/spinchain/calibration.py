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

The starts are a scrambled Sobol sequence (Joe & Kuo, SIAM J. Sci.
Comput. 30, 2635 (2008)) with random linear-matrix scrambling and a
digital shift (Matoušek, J. Complexity 14, 527 (1998)), generated here by
:func:`_sobol_points`. It reproduces ``scipy.stats.qmc.Sobol(d,
scramble=True, seed=seed).random_base2(m)`` bit for bit, and a test pins
it to scipy, but the package itself imports no scipy.
"""

from __future__ import annotations

import math
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
    return tuple(a * math.sqrt(math.pi * w) for a, w in pairs)


@lru_cache(maxsize=None)
def _calibration_targets(kind: str) -> np.ndarray:
    return (ideal_gate_matrix(kind) @ CALIBRATION_STATES.T).T


def per_state_fidelities(params, problem: CalibrationProblem) -> np.ndarray:
    u = slot_unitary(problem.kind, problem.parameter_pairs(params))
    outs = (u @ CALIBRATION_STATES.T).T
    targets = _calibration_targets(problem.kind)
    overlaps = np.sum(targets.conj() * outs, axis=1)
    return np.abs(overlaps) ** 2


def objective(params, problem: CalibrationProblem) -> float:
    """One minus the mean fidelity over the five calibration states."""
    return float(1.0 - np.mean(per_state_fidelities(params, problem)))


def nelder_mead(
    f,
    x0,
    step=None,
    max_iter: int = 5000,
    diameter_tol: float = 1e-10,
    f_tol: float = 1e-9,
):
    """Nelder-Mead simplex descent (reflection 1, expansion 2,
    contraction 0.5, shrink 0.5). Deterministic for a given start.

    Stops when the simplex diameter falls below ``diameter_tol``, the best
    value falls below ``f_tol``, or after ``max_iter`` iterations. Returns
    ``(x_best, f_best, n_iterations, n_evaluations)``.
    """
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


def _bound_arrays(problem: CalibrationProblem):
    lo = np.tile([problem.amplitude_bounds[0], problem.width_bounds[0]], problem.n_channels)
    hi = np.tile([problem.amplitude_bounds[1], problem.width_bounds[1]], problem.n_channels)
    return lo, hi


# Sobol direction numbers: 30 bits; dimension 1 is all ones, and dimensions
# 2-4 are (primitive polynomial, initial numbers) from the Joe-Kuo table.
_SOBOL_BITS = 30
_SOBOL_POLYNOMIALS = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)))


def _sobol_points(d: int, seed: int, m: int) -> np.ndarray:
    """The first ``2**m`` points of a ``d``-dimensional Sobol sequence with
    linear-matrix scrambling and a digital shift, drawn from
    ``np.random.default_rng(seed)`` exactly as scipy's ``qmc.Sobol`` draws
    them, so the two agree bit for bit."""
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
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, bits), dtype=np.uint32) @ (1 << np.arange(bits))
    lms = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
    lms[:, range(bits), range(bits)] = 1
    # scrambled direction numbers: each LMS matrix times the direction bits
    v_bits = (v[:, None, :] >> msb[:, None]) & 1
    scrambled = (1 << msb) @ ((lms @ v_bits) & 1)
    # point i XORs onto the shift the numbers picked by the bits of Gray(i)
    i = np.arange(2**m)
    gray = ((i ^ (i >> 1))[:, None, None] >> np.arange(bits)) & 1
    points = shift ^ np.bitwise_xor.reduce(gray * scrambled, axis=-1)
    return points / 2.0**bits


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
    seeds = list(points * (hi - sample_lo) + sample_lo)
    if problem.kind == "swap":
        stock = np.array(DEFAULT_SWAP_PARAMS, dtype=float)
    else:
        stock = np.array(
            DEFAULT_CNOT_LOCAL_PARAMS + DEFAULT_CNOT_COUPLING_PARAMS, dtype=float
        )
    seeds.append(stock)
    return seeds


def calibrate(
    problem: CalibrationProblem,
    seeds=None,
    rng_seed: int = 0,
    max_iter: int = 5000,
    diameter_tol: float = 1e-10,
    f_tol: float = 1e-9,
) -> CalibrationResult:
    """Multi-start Nelder-Mead over the pulse parameters.

    Deterministic for fixed ``seeds``/``rng_seed``; the best start wins,
    ties broken by seed order. A best objective at or above
    ``SUCCESS_OBJECTIVE`` is reported as a failure (with the best-found
    parameters still attached).
    """
    if seeds is None:
        seeds = default_seeds(problem, rng_seed)
    seeds = [np.asarray(s, dtype=float) for s in seeds]
    if not seeds:
        raise ValueError("calibration needs at least one seed")
    lo, hi = _bound_arrays(problem)
    span = hi - lo

    def penalised(x):
        excess = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        pen = float(np.sum(excess))
        if pen > 0.0:
            return 1.0 + pen
        return objective(x, problem)

    best = None
    total_evals = 0
    for index, seed in enumerate(seeds):
        start = np.clip(seed, lo + 1e-12, hi)
        x, fx, _, nfev = nelder_mead(
            penalised,
            start,
            step=0.05 * span,
            max_iter=max_iter,
            diameter_tol=diameter_tol,
            f_tol=f_tol,
        )
        total_evals += nfev
        if best is None or fx < best[1]:
            best = (x, fx, index)

    x_best, f_best, seed_index = best
    pairs = problem.parameter_pairs(x_best)
    fids = per_state_fidelities(x_best, problem)
    return CalibrationResult(
        kind=problem.kind,
        params=tuple(float(p) for p in x_best),
        objective_value=float(f_best),
        per_state_fidelities=tuple(float(f) for f in fids),
        areas=analytic_channel_areas(pairs),
        success=bool(f_best < SUCCESS_OBJECTIVE),
        seed_index=seed_index,
        n_evaluations=total_evals,
    )


@lru_cache(maxsize=None)
def calibrated_gate_params(kind: str) -> tuple[tuple[float, float], ...]:
    """Process-wide calibrated (A, W) pairs for a gate kind.

    Started from the stock parameters only and polished to simplex
    convergence (``f_tol=0``), giving per-gate infidelities far below the
    budget of the longest transport circuits. Deterministic, so every
    worker computes identical values.
    """
    problem = CalibrationProblem(kind=kind)
    if kind == "swap":
        stock = DEFAULT_SWAP_PARAMS
    else:
        stock = DEFAULT_CNOT_LOCAL_PARAMS + DEFAULT_CNOT_COUPLING_PARAMS
    result = calibrate(problem, seeds=[np.array(stock)], f_tol=0.0)
    if result.objective_value > 1e-9:
        raise RuntimeError(f"internal calibration of {kind} did not converge")
    return problem.parameter_pairs(result.params)
