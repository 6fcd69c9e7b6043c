"""Acceptance suite: one test per shipped criterion.

Each test prints a single ``ACCEPTANCE NN: PASS/FAIL`` line (shown with
``pytest -s`` or on failure) and asserts the criterion exactly as stated.
Five criteria (04, 05, 07, 08, 09) assert reference anchor values that
this engine does not reproduce; they fail by design and their messages
carry the measured numbers. The analysis lives in the project notes.
"""

import math
import time

import numpy as np
import pytest
from oracles import (
    LocalOperator,
    apply_pair_matrix_to_state,
    apply_superop,
    embed,
    idle_schedule,
    rk4_lindblad,
)

from spinchain import cli
from spinchain.calibration import CALIBRATION_STATES, CalibrationProblem, calibrate
from spinchain.circuits import (
    ChainTopology,
    build_transport_circuit,
    fidelity_difference_map,
    transport_fidelity,
    zero_contour,
)
from spinchain.dynamics import (
    IntegratorConfig,
    NoiseModel,
    evolve_lindblad_product,
    gate_fidelity,
)
from spinchain.hamiltonians import (
    DEFAULT_CNOT_COUPLING_PARAMS,
    DEFAULT_CNOT_LOCAL_PARAMS,
    DEFAULT_SWAP_PARAMS,
    cnot_gate,
    swap_gate,
)
from spinchain.pulses import PulseSchedule

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
FACTORED = IntegratorConfig()


def emit(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def test_criterion_01_noiseless_gate_fidelity():
    """Stock parameters give >= 0.999999 on the standard inputs, < 1 s."""
    started = time.perf_counter()
    inputs = [np.kron(c, KET0) for c in (KET0, KET1, PLUS)]
    inputs += [state.copy() for state in CALIBRATION_STATES]
    worst = 1.0
    for gate in (swap_gate(1, 2), cnot_gate(1, 2)):
        for psi in inputs:
            worst = min(worst, gate_fidelity(psi, gate))
    elapsed = time.perf_counter() - started
    ok = worst >= 0.999999 and elapsed < 1.0
    line = emit(1, ok, f"min fidelity {worst:.12f} over 16 runs in {elapsed:.2f}s")
    assert ok, line


def test_criterion_02_pulse_area_identities():
    """Analytic areas A*sqrt(pi*W) hit 3pi/4, 3pi/4, pi/4 within 5e-4."""
    area = lambda a, w: a * math.sqrt(math.pi * w)
    checks = [
        ("swap", area(*DEFAULT_SWAP_PARAMS), 3 * math.pi / 4),
        ("cnot local", area(*DEFAULT_CNOT_LOCAL_PARAMS), 3 * math.pi / 4),
        ("cnot coupling", area(*DEFAULT_CNOT_COUPLING_PARAMS), math.pi / 4),
    ]
    deviations = {name: abs(got - want) for name, got, want in checks}
    ok = all(d < 5e-4 for d in deviations.values())
    line = emit(2, ok, f"area deviations {deviations}")
    assert ok, line


def test_criterion_03_closed_form_decoherence():
    """Single-site channels match exp(-2*gamma*t) / exp(-gamma*t) to 1e-6
    relative across gamma*t in [0, 5], on the reference integrator (the
    dense RK4 oracle) and on the package's contraction."""

    def factored(rho, schedule, noise):
        return evolve_lindblad_product([rho], schedule, noise, (1,))

    worst = 0.0
    cases = [(0.25, 1), (1.0, 1), (1.0, 2), (1.0, 3), (1.0, 5)]
    for evolve in (rk4_lindblad, factored):
        for gamma, slots in cases:
            t = gamma * slots
            rho = np.outer(PLUS, PLUS.conj())
            out = evolve(rho, idle_schedule(slots), NoiseModel("dephasing", gamma))
            want = 0.5 * math.exp(-2.0 * t)
            worst = max(worst, abs(out[0, 1].real - want) / want)

            rho = np.outer(KET0, KET0.conj())
            out = evolve(rho, idle_schedule(slots), NoiseModel("amplitude_damping", gamma))
            want = math.exp(-t)
            worst = max(worst, abs(out[0, 0].real - want) / want)
    ok = worst < 1e-6
    line = emit(3, ok, f"worst relative error {worst:.3e} over gamma*t <= 5")
    assert ok, line


def test_criterion_04_single_gate_dephasing_anchors():
    """Reference anchors for one dephased gate at T = tau0, input |+>|0>."""
    anchors = {
        "swap": {0.001: 0.9996, 0.01: 0.996, 0.1: 0.967},
        "cnot": {0.001: 0.99987, 0.01: 0.9987, 0.1: 0.987},
    }
    psi = np.kron(PLUS, KET0)
    gates = {"swap": swap_gate(1, 2), "cnot": cnot_gate(1, 2)}
    rows = []
    ok = True
    for kind, table in anchors.items():
        for gamma, want in table.items():
            got = gate_fidelity(
                psi, gates[kind], NoiseModel("dephasing", gamma), 1.0, FACTORED
            )
            good = abs(got - want) <= 0.002
            ok = ok and good
            rows.append(f"{kind} g={gamma}: {got:.6f} vs {want} ({'ok' if good else 'off'})")
    line = emit(4, ok, "; ".join(rows))
    assert ok, line


def test_criterion_05_long_duration_saturation():
    """Reference saturation values for gamma = 0.1 at T = 100 tau0."""
    psi = np.kron(PLUS, KET0)
    gates = {"swap": swap_gate(1, 2), "cnot": cnot_gate(1, 2)}

    def fidelity_at(kind, noise_kind, dt):
        cfg = IntegratorConfig(dt=dt)
        return gate_fidelity(
            psi, gates[kind], NoiseModel(noise_kind, 0.1), 100.0, cfg
        )

    measured = {}
    convergence = 0.0
    for noise_kind in ("dephasing", "amplitude_damping"):
        for kind in ("swap", "cnot"):
            coarse = fidelity_at(kind, noise_kind, 0.005)
            fine = fidelity_at(kind, noise_kind, 0.0025)
            convergence = max(convergence, abs(coarse - fine))
            measured[(noise_kind, kind)] = fine
    assert convergence < 1e-7, f"step-halving drift {convergence:.2e}"

    checks = [
        ("dephasing", "swap", 0.6, 0.05),
        ("dephasing", "cnot", 0.5, 0.05),
        ("amplitude_damping", "swap", 0.7, 0.05),
    ]
    rows = []
    ok = True
    for noise_kind, kind, want, tol in checks:
        got = measured[(noise_kind, kind)]
        good = abs(got - want) <= tol
        ok = ok and good
        rows.append(f"{noise_kind}/{kind}: {got:.6f} vs {want}±{tol} ({'ok' if good else 'off'})")
    amp_cnot = measured[("amplitude_damping", "cnot")]
    good = amp_cnot <= 0.05
    ok = ok and good
    rows.append(f"amplitude_damping/cnot: {amp_cnot:.6f} vs <=0.05 ({'ok' if good else 'off'})")
    line = emit(5, ok, "; ".join(rows))
    assert ok, line


def test_criterion_06_noiseless_transport_matrix():
    """F >= 1 - 1e-6 for every size and both gate orders, no noise."""
    worst = 1.0
    where = ""
    cases = [("line_1d", n) for n in range(3, 9)]
    cases += [("square_2d", n) for n in (4, 6, 8, 10, 12)]
    for kind, n in cases:
        for order in ("cnot_first", "cnot_last"):
            circuit = build_transport_circuit(ChainTopology(kind, n), order)
            fid = transport_fidelity(circuit, KET0)
            if fid < worst:
                worst, where = fid, f"{kind} n={n} {order}"
    ok = worst >= 1.0 - 1e-6
    line = emit(6, ok, f"min fidelity {worst:.12f} at {where or 'n/a'}")
    assert ok, line


def noisy_transport(kind, n, order, noise):
    circuit = build_transport_circuit(ChainTopology(kind, n), order)
    return transport_fidelity(circuit, KET0, noise=noise, cfg=FACTORED)


def test_criterion_07_ladder_matches_half_length_line():
    """Dephased ladder transport should match the half-length line within
    0.01."""
    noise = NoiseModel("dephasing", 0.1)
    pairs = [(8, 4), (12, 6)]
    rows = []
    ok = True
    for n_2d, n_1d in pairs:
        f2 = noisy_transport("square_2d", n_2d, "cnot_first", noise)
        f1 = noisy_transport("line_1d", n_1d, "cnot_first", noise)
        gap = abs(f2 - f1)
        good = gap < 0.01
        ok = ok and good
        rows.append(
            f"|F(2D,{n_2d})-F(1D,{n_1d})| = |{f2:.6f}-{f1:.6f}| = {gap:.4f} ({'ok' if good else 'off'})"
        )
    line = emit(7, ok, "; ".join(rows))
    assert ok, line


def test_criterion_08_ladder_amplitude_damping_anchors():
    """Reference ladder anchors under amplitude damping, CNOT first."""
    sizes = (4, 6, 8, 10, 12)
    curves = {}
    for gamma in (0.001, 0.01, 0.1):
        noise = NoiseModel("amplitude_damping", gamma)
        curves[gamma] = [
            noisy_transport("square_2d", n, "cnot_first", noise) for n in sizes
        ]

    rows = []
    ok = True
    for gamma in (0.001, 0.01):
        f = curves[gamma]
        drop = (f[0] - f[-1]) / f[0]
        good = drop < 0.05
        ok = ok and good
        rows.append(f"g={gamma}: drop {100*drop:.2f}% vs <5% ({'ok' if good else 'off'})")

    f_heavy = curves[0.1]
    good = abs(f_heavy[-1] - 0.76) <= 0.03
    ok = ok and good
    rows.append(f"g=0.1 F(12) = {f_heavy[-1]:.4f} vs 0.76±0.03 ({'ok' if good else 'off'})")

    monotone = all(a > b for a, b in zip(f_heavy, f_heavy[1:]))
    ok = ok and monotone
    rows.append(f"monotone decreasing: {monotone}")

    x = np.asarray(sizes, dtype=float)
    y = np.asarray(f_heavy)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    r_squared = 1.0 - np.sum(residuals**2) / np.sum((y - y.mean()) ** 2)
    good = r_squared > 0.98
    ok = ok and good
    rows.append(f"linearity R^2 = {r_squared:.4f} vs >0.98 ({'ok' if good else 'off'})")

    line = emit(8, ok, "; ".join(rows))
    assert ok, line


def test_criterion_09_gate_order_maps():
    """Reference structure of the 64x64 gate-order maps at gamma = 0.1."""
    amp = fidelity_difference_map(
        noise=NoiseModel("amplitude_damping", 0.1), cfg=FACTORED
    )
    deph = fidelity_difference_map(noise=NoiseModel("dephasing", 0.1), cfg=FACTORED)

    rows = []
    ok = True

    negative_fraction = float(np.mean(amp.delta < 0.0))
    good = negative_fraction > 0.5
    ok = ok and good
    rows.append(f"amp delta<0 fraction {negative_fraction:.4f} vs >0.5 ({'ok' if good else 'off'})")

    per_theta_variance = float(np.max(np.var(deph.delta, axis=1)))
    good = per_theta_variance < 1e-6
    ok = ok and good
    rows.append(
        f"dephasing per-theta variance {per_theta_variance:.3e} vs <1e-6 ({'ok' if good else 'off'})"
    )

    positive_rows = np.any(deph.delta > 0.0, axis=1)
    lo, hi = math.pi / 2 - 0.1, 3 * math.pi / 5 + 0.1
    if positive_rows.any():
        band = (
            float(deph.thetas[positive_rows].min()),
            float(deph.thetas[positive_rows].max()),
        )
        good = lo <= band[0] and band[1] <= hi
    else:
        band, good = (math.nan, math.nan), False
    ok = ok and good
    rows.append(
        f"dephasing delta>0 band [{band[0]:.4f}, {band[1]:.4f}] vs within [{lo:.4f}, {hi:.4f}] ({'ok' if good else 'off'})"
    )

    contour = zero_contour(amp)
    rows.append(f"(amp zero contour: {contour.shape[0]} points)")

    line = emit(9, ok, "; ".join(rows))
    assert ok, line


def test_criterion_10_property_suites(tmp_path):
    """Dense-oracle equivalence, physical trajectories, step-halving,
    CSV determinism/worker independence, calibration reproducibility."""
    rows = []

    # dense equivalence of the pair kernels (4x4 on states, 16x16 on
    # density matrices), n <= 4
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (2, 3, 4):
        dim = 2**n
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        block = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dense = embed(LocalOperator((n, 1), block), n)
        state = apply_pair_matrix_to_state(block, (n, 1), psi.reshape((2,) * n))
        worst = max(worst, np.max(np.abs(state.reshape(-1) - dense @ psi)))
        sandwich = apply_superop(rho, np.kron(block, block.conj()), (n, 1), n)
        worst = max(worst, np.max(np.abs(sandwich - dense @ rho @ dense.conj().T)))
    assert worst < 1e-12, f"dense equivalence drift {worst:.2e}"
    rows.append(f"dense local-op equivalence {worst:.1e}")

    # trajectories stay physical for both integrators and both noises; the
    # package's trajectory is the contraction over each slot prefix
    circuit = build_transport_circuit(ChainTopology("line_1d", 3), "cnot_first")
    schedule = circuit.schedule
    sites = [np.outer(s, s.conj()) for s in (PLUS, KET0, KET0)]
    rho0 = np.kron(np.kron(sites[0], sites[1]), sites[2])
    for method in ("rk4", "factored"):
        for noise_kind in ("dephasing", "amplitude_damping"):
            drift = {"trace": 0.0, "herm": 0.0}

            def watch(t, rho):
                drift["trace"] = max(drift["trace"], abs(np.trace(rho).real - 1.0))
                drift["herm"] = max(drift["herm"], float(np.max(np.abs(rho - rho.conj().T))))

            noise = NoiseModel(noise_kind, 0.1)
            if method == "rk4":  # the dense reference integrator
                out = rk4_lindblad(rho0, schedule, noise, 1e-3, observer=watch)
            else:
                cfg = IntegratorConfig(dt=1e-3)
                for k in range(schedule.num_slots + 1):
                    prefix = PulseSchedule(
                        tuple(e for e in schedule.entries if e.slot < k),
                        schedule.slot_duration,
                        k,
                    )
                    out = evolve_lindblad_product(sites, prefix, noise, (1, 2, 3), cfg)
                    watch(k * schedule.slot_duration, out)
            assert drift["trace"] < 1e-9 and drift["herm"] < 1e-9, (method, noise_kind, drift)
            assert np.min(np.linalg.eigvalsh(out)) > -1e-9
    rows.append("trajectories physical (trace/herm <1e-9, psd)")

    # step-halving convergence of a noisy transport fidelity
    circuit = build_transport_circuit(ChainTopology("square_2d", 4), "cnot_first")
    noise = NoiseModel("amplitude_damping", 0.1)
    f_coarse = transport_fidelity(
        circuit, KET0, noise=noise, cfg=IntegratorConfig(dt=1e-3)
    )
    f_fine = transport_fidelity(
        circuit, KET0, noise=noise, cfg=IntegratorConfig(dt=5e-4)
    )
    halving = abs(f_coarse - f_fine)
    assert halving < 1e-7, f"step-halving drift {halving:.2e}"
    rows.append(f"step-halving {halving:.1e}")

    # CSV determinism and worker independence
    argv = ["duration-sweep", "--gate", "swap", "--noise", "dephasing",
            "--gamma", "0.01", "--alpha", "1,2"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli.main(argv + ["--out", str(paths[0])]) == 0
    assert cli.main(argv + ["--out", str(paths[1])]) == 0
    assert cli.main(argv + ["--workers", "3", "--out", str(paths[2])]) == 0
    bodies = [
        [l for l in p.read_text().splitlines() if not l.startswith("#")] for p in paths
    ]
    assert bodies[0] == bodies[1] == bodies[2], "CSV output varies across runs/workers"
    rows.append("CSV deterministic and worker-independent")

    # calibration reproducibility
    problem = CalibrationProblem(kind="swap")
    first = calibrate(problem, rng_seed=5)
    second = calibrate(problem, rng_seed=5)
    assert first.params == second.params and first.objective_value == second.objective_value
    rows.append("calibration reproducible under fixed seed")

    line = emit(10, True, "; ".join(rows))
    assert line
