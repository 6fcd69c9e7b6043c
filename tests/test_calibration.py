"""Tests for pulse-parameter calibration."""

import numpy as np
import pytest
from oracles import stepped_unitary
from scipy.stats import qmc

from spinchain.calibration import (
    CALIBRATION_STATES,
    SUCCESS_OBJECTIVE,
    CalibrationProblem,
    _bound_arrays,
    _sobol_points,
    analytic_channel_areas,
    calibrate,
    calibrated_gate_params,
    default_seeds,
    nelder_mead,
    objective,
    per_state_fidelities,
)
from spinchain.dynamics import discrete_channel_areas, slot_unitary
from spinchain.hamiltonians import (
    DEFAULT_CNOT_COUPLING_PARAMS,
    DEFAULT_CNOT_LOCAL_PARAMS,
    DEFAULT_SWAP_PARAMS,
    GATE_KINDS,
    cnot_gate,
    ideal_gate_matrix,
    rotated_cnot_gate,
    swap_gate,
)
from spinchain.pulses import schedule_sequence

STOCK_FLAT = {
    "swap": np.array(DEFAULT_SWAP_PARAMS),
    "cnot": np.array(DEFAULT_CNOT_LOCAL_PARAMS + DEFAULT_CNOT_COUPLING_PARAMS),
    "cnot_rotated": np.array(DEFAULT_CNOT_LOCAL_PARAMS + DEFAULT_CNOT_COUPLING_PARAMS),
}


# ---------------------------------------------------------------------------
# objective landscape anchors
# ---------------------------------------------------------------------------


def test_null_pulse_objective_anchors():
    """With zero amplitude the gate is the identity; the mean infidelity
    over the five probe states is then fixed by counting alone."""
    swap = objective(np.array([0.0, 0.5]), CalibrationProblem(kind="swap"))
    assert swap == pytest.approx(0.4, abs=1e-15)
    cnot = objective(np.array([0.0, 0.5, 0.0, 0.5]), CalibrationProblem(kind="cnot"))
    assert cnot == pytest.approx(0.4, abs=1e-12)
    rotated = objective(
        np.array([0.0, 0.5, 0.0, 0.5]), CalibrationProblem(kind="cnot_rotated")
    )
    assert rotated == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_stock_parameters_score_below_success_threshold(kind):
    assert objective(STOCK_FLAT[kind], CalibrationProblem(kind=kind)) < SUCCESS_OBJECTIVE


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_per_state_fidelities_are_probabilities(kind):
    fids = per_state_fidelities(STOCK_FLAT[kind], CalibrationProblem(kind=kind))
    assert fids.shape == (5,)
    assert np.all(fids >= 0.0) and np.all(fids <= 1.0 + 1e-12)
    assert np.all(fids > 1.0 - 1e-5)


def test_calibration_states_are_normalised():
    norms = np.linalg.norm(CALIBRATION_STATES, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# the calibration surrogate is exactly the stepped engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, gate",
    [
        ("swap", swap_gate(1, 2)),
        ("cnot", cnot_gate(1, 2)),
        ("cnot_rotated", rotated_cnot_gate(1, 2)),
    ],
)
def test_slot_unitary_equals_stepped_evolution(kind, gate):
    u = slot_unitary(kind, gate.params)
    schedule = schedule_sequence([gate], slot_duration=1.0)
    assert np.max(np.abs(u - stepped_unitary(schedule, 2, 1000))) < 1e-12


def test_discrete_area_is_analytic_minus_truncation():
    pairs = (DEFAULT_SWAP_PARAMS,)
    (discrete,) = discrete_channel_areas(pairs)
    (analytic,) = analytic_channel_areas(pairs)
    assert discrete < analytic  # the slot clips the Gaussian tails
    assert analytic - discrete < 1e-5


# ---------------------------------------------------------------------------
# simplex minimiser
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 4])
def test_nelder_mead_minimises_a_quadratic(dim):
    target = np.arange(1.0, dim + 1.0)
    f = lambda x: float(np.sum((x - target) ** 2))
    # f_tol=0 forces convergence by simplex diameter, the high-accuracy mode
    x, fx, iterations, nfev = nelder_mead(f, np.zeros(dim), f_tol=0.0)
    assert np.max(np.abs(x - target)) < 1e-6
    assert fx < 1e-12
    assert 0 < iterations
    assert nfev >= iterations


def test_nelder_mead_respects_iteration_cap():
    f = lambda x: float(np.sum(x**2))
    _, _, iterations, _ = nelder_mead(f, np.full(3, 10.0), max_iter=5)
    assert iterations <= 5


# ---------------------------------------------------------------------------
# end-to-end calibration
# ---------------------------------------------------------------------------


def test_default_seeds_are_deterministic_and_bounded():
    problem = CalibrationProblem(kind="swap")
    seeds_a = default_seeds(problem, rng_seed=3)
    seeds_b = default_seeds(problem, rng_seed=3)
    assert len(seeds_a) == 17  # 16 quasi-random starts plus the stock values
    for a, b in zip(seeds_a, seeds_b):
        assert np.array_equal(a, b)
    assert np.array_equal(seeds_a[-1], np.array(DEFAULT_SWAP_PARAMS))
    for seed in seeds_a[:-1]:
        assert np.all(seed >= np.array([1e-3, 1e-4]) - 1e-15)
        assert np.all(seed <= np.array([50.0, 1.0]) + 1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sobol_points_equal_scipy_bit_for_bit(d):
    for m in range(1, 8):
        for seed in [*range(20), 2**40 + 3]:
            expected = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(m)
            assert np.array_equal(_sobol_points(d, seed, m), expected), (m, seed)


def test_sobol_points_refuse_more_than_four_dimensions():
    with pytest.raises(ValueError, match="at most 4 parameters"):
        _sobol_points(5, 0, 4)


BOUND_BOXES = [
    {},  # the defaults
    {"amplitude_bounds": (0.0, 0.01), "width_bounds": (1e-4, 2e-4)},
    {"amplitude_bounds": (2.0, 7.5), "width_bounds": (0.3, 0.9)},
]


@pytest.mark.parametrize("box", range(len(BOUND_BOXES)))
@pytest.mark.parametrize("kind", GATE_KINDS)
def test_default_seeds_equal_the_scipy_composition(kind, box):
    problem = CalibrationProblem(kind=kind, **BOUND_BOXES[box])
    lo, hi = _bound_arrays(problem)
    sample_lo = np.maximum(lo, np.minimum(1e-3, lo + 0.1 * (hi - lo)))
    for rng_seed in (0, 1, 7, 123456789):
        sampler = qmc.Sobol(d=problem.n_params, scramble=True, seed=rng_seed)
        expected = list(qmc.scale(sampler.random_base2(4), sample_lo, hi))
        seeds = default_seeds(problem, rng_seed)
        assert len(seeds) == len(expected) + 1
        for got, want in zip(seeds, expected + [STOCK_FLAT[kind]]):
            assert np.array_equal(got, want), rng_seed


def test_empty_bound_box_is_refused():
    problem = CalibrationProblem("swap", amplitude_bounds=(5.0, 5.0))
    with pytest.raises(ValueError):
        default_seeds(problem)
    with pytest.raises(ValueError):
        calibrate(problem)


def test_calibrate_swap_succeeds_and_lands_on_the_area_family():
    problem = CalibrationProblem(kind="swap")
    result = calibrate(problem, rng_seed=0)
    assert result.success
    assert result.objective_value < 1e-8
    # the effective (clipped, discretised) pulse area must sit on the
    # exchange family pi/4 + k*pi/2
    (area,) = discrete_channel_areas(problem.parameter_pairs(result.params))
    k = round((area - np.pi / 4) / (np.pi / 2))
    assert k >= 0
    assert abs(area - (np.pi / 4 + k * np.pi / 2)) < 1e-4


def test_calibrate_is_reproducible():
    problem = CalibrationProblem(kind="swap")
    a = calibrate(problem, rng_seed=1)
    b = calibrate(problem, rng_seed=1)
    assert a.params == b.params
    assert a.objective_value == b.objective_value
    assert a.n_evaluations == b.n_evaluations
    assert a.seed_index == b.seed_index


def test_calibrate_reports_failure_inside_infeasible_bounds():
    problem = CalibrationProblem(
        kind="swap", amplitude_bounds=(0.0, 0.01), width_bounds=(1e-4, 2e-4)
    )
    result = calibrate(problem, seeds=[np.array([0.005, 1.5e-4])], max_iter=300)
    assert not result.success
    assert result.objective_value >= SUCCESS_OBJECTIVE
    assert len(result.per_state_fidelities) == 5
    a, w = result.params
    assert 0.0 <= a <= 0.01 + 1e-9
    assert 1e-4 - 1e-12 <= w <= 2e-4 + 1e-12


def test_calibrate_requires_a_seed():
    with pytest.raises(ValueError):
        calibrate(CalibrationProblem(kind="swap"), seeds=[])


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_calibrated_bank_is_essentially_exact(kind):
    pairs = calibrated_gate_params(kind)
    problem = CalibrationProblem(kind=kind)
    flat = np.array([p for pair in pairs for p in pair])
    assert objective(flat, problem) <= 1e-9
    assert all(w > 0.0 for _, w in pairs)
    assert calibrated_gate_params(kind) is pairs  # cached


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_calibrated_gate_acts_correctly_on_held_out_states(kind):
    """States outside the five calibration probes are transported too."""
    u = slot_unitary(kind, calibrated_gate_params(kind))
    ideal = ideal_gate_matrix(kind)
    rng = np.random.default_rng(11)
    for _ in range(3):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        overlap = abs(np.vdot(ideal @ psi, u @ psi)) ** 2
        assert overlap > 1.0 - 1e-9


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_problem_rejects_unknown_kind():
    with pytest.raises(ValueError):
        CalibrationProblem(kind="cz")


def test_parameter_pairs_length_checked():
    swap = CalibrationProblem(kind="swap")
    assert swap.parameter_pairs([1.0, 0.5]) == ((1.0, 0.5),)
    with pytest.raises(ValueError):
        swap.parameter_pairs([1.0, 0.5, 2.0, 0.5])
    cnot = CalibrationProblem(kind="cnot")
    with pytest.raises(ValueError):
        cnot.parameter_pairs([1.0, 0.5])


def test_slot_unitary_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        slot_unitary("swap", [(1.0, -0.1)])
