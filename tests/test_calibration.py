"""Tests for pulse-parameter calibration."""

import numpy as np
import pytest
from oracles import (
    calibrate_loop,
    nelder_mead_loop,
    point_fidelities,
    point_objective,
    stepped_unitary,
)
from scipy.stats import qmc

from spinchain import calibration
from spinchain.calibration import (
    CALIBRATION_STATES,
    SUCCESS_OBJECTIVE,
    CalibrationProblem,
    _bound_arrays,
    _pcg64_bits,
    _sobol_points,
    _stock_params,
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


def _same_descent(a, b):
    x_a, f_a, iterations_a, nfev_a = a
    x_b, f_b, iterations_b, nfev_b = b
    return np.array_equal(x_a, x_b) and f_a == f_b and (iterations_a, nfev_a) == (iterations_b, nfev_b)


@pytest.mark.parametrize("max_iter", [0, 1, 5, 5000])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_nelder_mead_equals_the_scalar_loop(dim, max_iter):
    target = np.arange(1.0, dim + 1.0)
    f = lambda x: float(np.sum((x - target) ** 2) + np.sin(5.0 * x[0]))
    for f_tol in (1e-9, 0.0, -np.inf):
        args = (f, np.full(dim, 0.3), None, max_iter, 1e-10, f_tol)
        assert _same_descent(nelder_mead(*args), nelder_mead_loop(*args))


def test_nelder_mead_on_the_calibration_objective_equals_the_scalar_loop():
    problem = CalibrationProblem(kind="cnot")
    f = lambda x: point_objective(x, problem)
    x0 = STOCK_FLAT["cnot"] * 1.01
    assert _same_descent(nelder_mead(f, x0, max_iter=60), nelder_mead_loop(f, x0, max_iter=60))


# ---------------------------------------------------------------------------
# the batched objective scores each point as it would alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_batched_objective_equals_points_scored_alone(kind):
    problem = CalibrationProblem(kind=kind)
    rng = np.random.default_rng(3)
    scale = np.tile([50.0, 1.0], problem.n_channels)
    for size in (1, 2, 7, 17):
        points = rng.uniform(1e-3, 1.0, size=(size, problem.n_params)) * scale
        points[::2] *= np.tile([0.3, 0.03], problem.n_channels)  # near the stock pulses
        fids = per_state_fidelities(points, problem)
        values = objective(points, problem)
        assert fids.shape == (size, 5) and values.shape == (size,)
        for point, row, value in zip(points, fids, values):
            assert np.array_equal(row, point_fidelities(point, problem))
            assert np.array_equal(per_state_fidelities(point, problem), row)
            assert value == point_objective(point, problem) == objective(point, problem)


def test_batched_objective_checks_every_point():
    problem = CalibrationProblem(kind="cnot")
    points = np.tile(STOCK_FLAT["cnot"], (3, 1))
    points[2, 3] = 0.0  # a zero width
    with pytest.raises(ValueError, match="pulse width must be positive"):
        objective(points, problem)
    with pytest.raises(ValueError, match="takes 4 parameters"):
        objective(points[:, :3], problem)


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


@pytest.mark.parametrize(
    "seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 17, np.int64(123456789)], ids=repr
)
@pytest.mark.parametrize("first, second", [(120, 3600), (1, 900), (7, 30), (61, 2), (0, 5)])
def test_pcg64_bits_equal_numpy_over_two_draws(seed, first, second):
    # an odd first draw leaves the buffered half of a 64-bit output to the next
    rng = np.random.default_rng(seed)
    expected = [rng.integers(2, size=size, dtype=np.uint32) for size in (first, second)]
    assert np.array_equal(_pcg64_bits(seed, first + second), np.concatenate(expected))


def test_pcg64_bits_refuse_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _pcg64_bits(-1, 4)


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


# ---------------------------------------------------------------------------
# lockstep multi-start calibration equals the scalar starts one by one
# ---------------------------------------------------------------------------


def _spy_lockstep(monkeypatch):
    """Record each batch the lockstep loop scores, as (points, points
    outside the box), and each start's iteration count."""
    batches, iterations = [], []
    lockstep = calibration._lockstep_nelder_mead

    def spy(f, *args):
        def scored(x):
            values = f(x)
            batches.append((len(x), int(np.sum(values > 1.0))))  # 1 + penalty
            return values

        result = lockstep(scored, *args)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(calibration, "_lockstep_nelder_mead", spy)
    return batches, iterations


@pytest.mark.parametrize("rng_seed", [0, 1, 7, 123456789])
@pytest.mark.parametrize("kind", GATE_KINDS)
def test_calibrate_equals_the_scalar_oracle(kind, rng_seed):
    problem = CalibrationProblem(kind=kind)
    result = calibrate(problem, rng_seed=rng_seed)
    assert result == calibrate_loop(problem, default_seeds(problem, rng_seed))


def test_penalised_and_scored_points_share_a_batch(monkeypatch):
    problem = CalibrationProblem(kind="swap")
    lo, hi = _bound_arrays(problem)
    # starts on the box's corners and edges step and reflect out of it
    seeds = default_seeds(problem, 5)[:4] + [hi, lo, np.array([50.0, 1e-4]), np.array([0.0, 0.5])]
    batches, _ = _spy_lockstep(monkeypatch)
    result = calibrate(problem, seeds=seeds)
    assert any(0 < outside < size for size, outside in batches)
    assert result == calibrate_loop(problem, seeds)


def test_duplicated_starts_keep_the_first_in_seed_order():
    problem = CalibrationProblem(kind="cnot")
    seeds = default_seeds(problem, 0)
    best = calibrate(problem, seeds=seeds).seed_index
    duplicated = [seeds[5], seeds[best], seeds[best], seeds[3], seeds[best]]
    result = calibrate(problem, seeds=duplicated)
    assert result.seed_index == 1
    assert result == calibrate_loop(problem, duplicated)


def test_starts_that_stop_in_different_rounds_and_at_the_cap(monkeypatch):
    problem = CalibrationProblem(kind="cnot", amplitude_bounds=(0.0, 5.0), width_bounds=(1e-4, 0.01))
    seeds = default_seeds(problem, 0)
    _, iterations = _spy_lockstep(monkeypatch)
    result = calibrate(problem, seeds=seeds, max_iter=300)
    (counts,) = iterations
    assert len(set(counts)) > 2 and 300 in counts and min(counts) < 300
    assert not result.success
    assert result == calibrate_loop(problem, seeds, max_iter=300)


def test_a_scored_zero_width_raises_as_before():
    """A box that admits w = 0 lets a reflection land on it exactly
    (0.05 + (0.05 - 0.1)); that point's pulse is refused, in lockstep as
    in the scalar loop."""
    problem = CalibrationProblem(kind="swap", width_bounds=(0.0, 1.0))
    for seeds in ([np.array([2.5, 0.05])], [np.array([20.0, 0.3]), np.array([2.5, 0.05])]):
        with pytest.raises(ValueError, match="pulse width must be positive"):
            calibrate_loop(problem, seeds, max_iter=50)
        with pytest.raises(ValueError, match="pulse width must be positive"):
            calibrate(problem, seeds=seeds, max_iter=50)


def test_calibrate_rejects_seeds_of_the_wrong_length():
    with pytest.raises(ValueError, match="takes 2 parameters"):
        calibrate(CalibrationProblem(kind="swap"), seeds=[np.array([1.0, 0.5, 0.1])])


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_calibrated_bank_is_essentially_exact(kind):
    pairs = calibrated_gate_params(kind)
    problem = CalibrationProblem(kind=kind)
    flat = np.array([p for pair in pairs for p in pair])
    assert objective(flat, problem) <= 1e-9
    assert all(w > 0.0 for _, w in pairs)
    assert calibrated_gate_params(kind) is pairs  # cached


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_pinned_bank_equals_the_polish_bit_for_bit(kind):
    """The bank ships as literals. Rerun the polish that made them: if this
    fails, the objective or the simplex loop changed, and the literals in
    ``calibration._POLISHED_BANK`` must be pinned again from this run."""
    problem = CalibrationProblem(kind=kind)
    result = calibrate(problem, seeds=[_stock_params(kind)], f_tol=0.0)
    assert result.objective_value <= 1e-9
    assert problem.parameter_pairs(result.params) == calibrated_gate_params(kind)


def test_bank_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind"):
        calibrated_gate_params("cz")


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
