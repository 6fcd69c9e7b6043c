"""Command-line front end: experiment orchestration and CSV emission.

Five subcommands cover the simulator's experiments:

* ``calibrate``       — pulse-parameter search for one gate kind.
* ``trace``           — per-step gate fidelity and drive amplitudes.
* ``duration-sweep``  — gate fidelity versus stretched gate duration.
* ``chain-sweep``     — transport fidelity versus chain length.
* ``state-map``       — gate-order fidelity difference over payload states.

Settings resolve in precedence order: command-line flags, then the
``--config`` INI file, then built-in defaults. Every CSV starts with
``#``-prefixed header comments carrying the fully resolved configuration;
timestamps and wall time appear only there, so CSV bodies are
byte-identical across reruns and worker counts.

Noiseless runs apply one closed-form unitary per gate and slot; noisy runs
use the factored master-equation integrator (16x16 pair propagators plus
idle-site channels), and noisy transport holds only the circuit's light
cone. A noisy ``trace`` steps one gate's pair propagator and reads every
step from that one integration.

Units: times in units of the base slot, pulse amplitudes in units of the
base energy scale (with hbar = 1), pulse widths in slot-squared, and
dephasing/damping rates in inverse slots.

Exit codes: 0 success, 2 configuration error, 3 calibration failure,
4 integrator abort (trace drift or lost normalisation).
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .calibration import CalibrationProblem, analytic_channel_areas, calibrate
from .circuits import (
    ChainTopology,
    build_transport_circuit,
    default_map_grid,
    fidelity_difference_map,
    fit_cos_two_phi,
    transport_fidelity,
    zero_contour,
)
from .dynamics import (
    DEFAULT_STEPS_PER_SLOT,
    IntegratorConfig,
    NoiseModel,
    NumericalError,
    evolve_unitary,
    gate_fidelity,
    gate_superoperator,
)
from .hamiltonians import (
    GATE_KINDS,
    GateSpec,
    cnot_gate,
    ideal_gate_matrix,
    materialize_channel_pulses,
    rotated_cnot_gate,
    swap_gate,
)
from .operators import fidelity_to_pure, overlap_fidelity
from .pulses import schedule_sequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_INTEGRATOR = 4

LINDBLAD_MAX_QUBITS = 14

NOISE_NAMES = {
    "none": "none",
    "dephasing": "dephasing",
    "amp": "amplitude_damping",
    "amplitude_damping": "amplitude_damping",
}
TOPOLOGY_NAMES = {
    "1d": "line_1d",
    "line_1d": "line_1d",
    "2d": "square_2d",
    "square_2d": "square_2d",
}
ORDER_NAMES = {
    "cnot-first": "cnot_first",
    "cnot_first": "cnot_first",
    "cnot-last": "cnot_last",
    "cnot_last": "cnot_last",
    "both": "both",
}

COMMANDS = ("calibrate", "trace", "duration-sweep", "chain-sweep", "state-map")

# Recognised config-file sections and keys; anything else is a config error.
CONFIG_SCHEMA = {
    "experiment": {"kind"},
    "gate": {"kind"},
    "noise": {"kind", "gamma"},
    "topology": {"kind", "n", "order"},
    "sweep": {"alpha"},
    "map": {"grid"},
    "integrator": {"dt"},
    "calibration": {"amplitude_min", "amplitude_max", "width_min", "width_max"},
    "run": {"workers", "seed", "out", "force_large_n"},
}


class ConfigError(Exception):
    """A setting is missing, malformed, or inconsistent."""


# ---------------------------------------------------------------------------
# configuration resolution


@dataclass
class Settings:
    command: str
    gate: str = "swap"
    noise_kind: str = "none"
    gammas: tuple[float, ...] = ()
    topology_kind: str = "line_1d"
    ns: tuple[int, ...] = ()
    orders: tuple[str, ...] = ("cnot_first", "cnot_last")
    alphas: tuple[float, ...] = ()
    grid: tuple[int, int] = (64, 64)
    dt: float | None = None
    workers: int = 1
    seed: int = 0
    out: str = ""
    force_large_n: bool = False
    amplitude_bounds: tuple[float, float] = (0.0, 50.0)
    width_bounds: tuple[float, float] = (1e-4, 1.0)
    notes: dict = field(default_factory=dict)

    def noise(self, gamma: float) -> NoiseModel:
        if self.noise_kind == "none" or gamma == 0.0:
            return NoiseModel("none")
        return NoiseModel(self.noise_kind, gamma)

    def effective_dt(self, slot_duration: float = 1.0) -> float:
        return self.dt if self.dt is not None else slot_duration / DEFAULT_STEPS_PER_SLOT


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} list {text!r}") from exc
    if not values:
        raise ConfigError(f"{what} list is empty")
    return values


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} list {text!r}") from exc
    if not values:
        raise ConfigError(f"{what} list is empty")
    return values


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"grid must look like 64x64, got {text!r}")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"grid must look like 64x64, got {text!r}") from exc
    if rows < 2 or cols < 2:
        raise ConfigError("grid needs at least 2 points per axis")
    return rows, cols


def _parse_bool(text: str, what: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse {what} boolean {text!r}")


def load_config_file(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    data: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            data.setdefault(section, {})[key] = value.strip()
    return data


def _lookup(cfg: dict, section: str, key: str):
    return cfg.get(section, {}).get(key)


def resolve_settings(args: argparse.Namespace) -> Settings:
    cfg = load_config_file(args.config) if args.config else {}
    command = args.command

    kind_in_file = _lookup(cfg, "experiment", "kind")
    if kind_in_file is not None and kind_in_file not in COMMANDS:
        raise ConfigError(f"unknown experiment kind {kind_in_file!r}")

    s = Settings(command=command)

    gate = args.gate or _lookup(cfg, "gate", "kind")
    if gate is None:
        gate = "both" if command == "duration-sweep" else "swap"
    if gate not in GATE_KINDS + ("both",):
        raise ConfigError(f"unknown gate kind {gate!r}")
    s.gate = gate

    noise = args.noise or _lookup(cfg, "noise", "kind")
    if noise is None:
        noise = {
            "trace": "none",
            "duration-sweep": "dephasing",
            "chain-sweep": "dephasing",
            "state-map": "amp",
        }.get(command, "none")
    if noise not in NOISE_NAMES:
        raise ConfigError(f"unknown noise kind {noise!r}")
    s.noise_kind = NOISE_NAMES[noise]

    gamma_text = args.gamma or _lookup(cfg, "noise", "gamma")
    if gamma_text is not None:
        s.gammas = _parse_float_list(gamma_text, "gamma")
    elif s.noise_kind == "none":
        s.gammas = (0.0,)
    elif command == "duration-sweep":
        s.gammas = (0.001, 0.01, 0.1)
    else:
        s.gammas = (0.1,)
    if any(g < 0 for g in s.gammas):
        raise ConfigError("gamma values must be nonnegative")
    if s.noise_kind == "none" and any(g > 0 for g in s.gammas):
        raise ConfigError("noise kind 'none' cannot take positive gamma")

    topology = args.topology or _lookup(cfg, "topology", "kind")
    if topology is None:
        topology = "2d" if command == "state-map" else "1d"
    if topology not in TOPOLOGY_NAMES:
        raise ConfigError(f"unknown topology {topology!r}")
    s.topology_kind = TOPOLOGY_NAMES[topology]

    n_text = args.n or _lookup(cfg, "topology", "n")
    if n_text is not None:
        s.ns = _parse_int_list(n_text, "n")
    elif command == "state-map":
        s.ns = (4,)
    elif s.topology_kind == "line_1d":
        s.ns = (3, 4, 5, 6, 7, 8)
    else:
        s.ns = (4, 6, 8, 10, 12)

    order = args.order or _lookup(cfg, "topology", "order")
    if order is None:
        order = "both"
    if order not in ORDER_NAMES:
        raise ConfigError(f"unknown gate order {order!r}")
    resolved_order = ORDER_NAMES[order]
    s.orders = (
        ("cnot_first", "cnot_last") if resolved_order == "both" else (resolved_order,)
    )

    alpha_text = args.alpha or _lookup(cfg, "sweep", "alpha")
    if alpha_text is not None:
        s.alphas = _parse_float_list(alpha_text, "alpha")
        if any(a <= 0 for a in s.alphas):
            raise ConfigError("alpha values must be positive")
    else:
        s.alphas = tuple(float(a) for a in np.geomspace(1.0, 100.0, 30))

    grid_text = args.grid or _lookup(cfg, "map", "grid")
    if grid_text is not None:
        s.grid = _parse_grid(grid_text)

    dt_text = _lookup(cfg, "integrator", "dt")
    if args.dt is not None:
        s.dt = args.dt
    elif dt_text:
        try:
            s.dt = float(dt_text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse integrator dt {dt_text!r}") from exc
    if s.dt is not None and s.dt <= 0:
        raise ConfigError("integrator dt must be positive")

    workers_text = _lookup(cfg, "run", "workers")
    if args.workers is not None:
        s.workers = args.workers
    elif workers_text:
        try:
            s.workers = int(workers_text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse workers {workers_text!r}") from exc
    if s.workers < 1:
        raise ConfigError("workers must be at least 1")

    seed_text = _lookup(cfg, "run", "seed")
    if args.seed is not None:
        s.seed = args.seed
    elif seed_text:
        try:
            s.seed = int(seed_text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse seed {seed_text!r}") from exc

    out = args.out or _lookup(cfg, "run", "out")
    s.out = out if out else f"{command}.csv"

    force_text = _lookup(cfg, "run", "force_large_n")
    s.force_large_n = bool(args.force_large_n) or (
        _parse_bool(force_text, "force_large_n") if force_text else False
    )

    for key, lo_default, hi_default in (
        ("amplitude", 0.0, 50.0),
        ("width", 1e-4, 1.0),
    ):
        lo_text = _lookup(cfg, "calibration", f"{key}_min")
        hi_text = _lookup(cfg, "calibration", f"{key}_max")
        try:
            lo = float(lo_text) if lo_text else lo_default
            hi = float(hi_text) if hi_text else hi_default
        except ValueError as exc:
            raise ConfigError(f"cannot parse calibration {key} bounds") from exc
        if not hi > lo:
            raise ConfigError(f"calibration {key} bounds are empty")
        if key == "amplitude":
            s.amplitude_bounds = (lo, hi)
        else:
            if lo <= 0:
                raise ConfigError("width lower bound must be positive")
            s.width_bounds = (lo, hi)

    return s


def settings_header(s: Settings) -> list[tuple[str, str]]:
    pairs = {
        "command": s.command,
        "gate": s.gate,
        "noise": s.noise_kind,
        "gamma": ",".join(_fmt_float(g) for g in s.gammas),
        "topology": s.topology_kind,
        "n": ",".join(str(n) for n in s.ns),
        "order": ",".join(s.orders),
        "alpha": ",".join(_fmt_float(a) for a in s.alphas),
        "grid": f"{s.grid[0]}x{s.grid[1]}",
        "integrator_dt": "auto" if s.dt is None else _fmt_float(s.dt),
        "workers": str(s.workers),
        "seed": str(s.seed),
        "out": s.out,
        "force_large_n": str(s.force_large_n).lower(),
        "amplitude_bounds": f"{_fmt_float(s.amplitude_bounds[0])},{_fmt_float(s.amplitude_bounds[1])}",
        "width_bounds": f"{_fmt_float(s.width_bounds[0])},{_fmt_float(s.width_bounds[1])}",
    }
    pairs.update({k: str(v) for k, v in s.notes.items()})
    return sorted(pairs.items())


# ---------------------------------------------------------------------------
# CSV emission


def _fmt_float(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    return str(value)


def write_csv(
    path: str,
    header_pairs: list[tuple[str, str]],
    columns: list[str],
    rows: list[tuple],
    wall_time_s: float,
) -> None:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [f"# generated_at = {stamp}", f"# wall_time_s = {wall_time_s:.3f}"]
    lines += [f"# {key} = {value}" for key, value in header_pairs]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(cell) for cell in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_jobs(jobs, workers: int) -> list:
    """Run callables on a bounded pool; results keep submission order."""
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [future.result() for future in futures]


# ---------------------------------------------------------------------------
# subcommand runners


GATE_BUILDERS = {
    "swap": swap_gate,
    "cnot": cnot_gate,
    "cnot_rotated": rotated_cnot_gate,
}


def _single_gate(s: Settings) -> GateSpec:
    if s.gate == "both":
        raise ConfigError(f"{s.command} takes a single gate kind, not 'both'")
    return GATE_BUILDERS[s.gate](1, 2)


_KET_ZERO = np.array([1.0, 0.0], dtype=complex)
_KET_ONE = np.array([0.0, 1.0], dtype=complex)
_KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

TRACE_INPUTS = (
    ("f_q1_zero", _KET_ZERO),
    ("f_q1_one", _KET_ONE),
    ("f_q1_plus", _KET_PLUS),
)


def run_trace(s: Settings):
    """Per-step fidelity toward the ideal gate output, plus drive values."""
    gate = _single_gate(s)
    pulses = materialize_channel_pulses(gate.params, 0.0, 1.0)
    noise = s.noise(s.gammas[0])
    cfg = IntegratorConfig(dt=s.dt)
    ideal = ideal_gate_matrix(gate.kind)
    inputs = [np.kron(control, _KET_ZERO) for _, control in TRACE_INPUTS]
    targets = [ideal @ psi0 for psi0 in inputs]

    times: list[float] = []
    fidelity_columns: list[list[float]] = [[] for _ in inputs]
    if noise.kind == "none":
        schedule = schedule_sequence([gate], slot_duration=1.0)
        for psi0, target, samples in zip(inputs, targets, fidelity_columns):
            times = []

            def observer(t, psi, times=times, target=target, samples=samples):
                times.append(t)
                samples.append(overlap_fidelity(psi, target))

            evolve_unitary(psi0, schedule, cfg, observer)
    else:
        # One pair integration serves every input: each step's propagator
        # maps all initial density matrices at once.
        rho0 = np.stack([np.outer(p, p.conj()).reshape(-1) for p in inputs], axis=1)

        def observer(t, phi):
            times.append(t)
            rhos = phi @ rho0
            for k, (target, samples) in enumerate(zip(targets, fidelity_columns)):
                samples.append(fidelity_to_pure(rhos[:, k].reshape(4, 4), target))

        gate_superoperator(gate, noise, cfg, observer)

    columns = ["t"] + [name for name, _ in TRACE_INPUTS]
    columns += [f"j_channel_{i + 1}" for i in range(len(pulses))]
    rows = []
    for idx, t in enumerate(times):
        row = [t] + [col[idx] for col in fidelity_columns]
        row += [pulse.value(t) for pulse in pulses]
        rows.append(tuple(row))
    return columns, rows


def run_duration_sweep(s: Settings):
    """Gate fidelity for stretched gates, over gates x gammas x alphas."""
    gates = ("swap", "cnot") if s.gate == "both" else (s.gate,)
    psi0 = np.kron(_KET_PLUS, _KET_ZERO)

    cases = [
        (kind, gamma, alpha)
        for kind in gates
        for gamma in s.gammas
        for alpha in s.alphas
    ]

    def job(kind, gamma, alpha):
        gate = GATE_BUILDERS[kind](1, 2)
        cfg = IntegratorConfig(dt=s.dt)
        return gate_fidelity(psi0, gate, s.noise(gamma), alpha, cfg)

    values = run_jobs([lambda c=c: job(*c) for c in cases], s.workers)
    columns = ["duration", "gamma", "gate", "fidelity", "dt"]
    rows = [
        (alpha, gamma, kind, value, s.effective_dt(alpha))
        for (kind, gamma, alpha), value in zip(cases, values)
    ]
    return columns, rows


def _check_lindblad_size(s: Settings, circuits) -> None:
    """Refuse noisy runs whose live register exceeds
    ``LINDBLAD_MAX_QUBITS`` sites unless forced."""
    if s.noise_kind == "none" or max(s.gammas) == 0.0 or s.force_large_n:
        return
    width = max(circuit.live_width for circuit in circuits)
    if width <= LINDBLAD_MAX_QUBITS:
        return
    per_copy = 16.0 * 4.0**width / 2.0**30
    raise ConfigError(
        f"a Lindblad run with a live register of w={width} qubits holds "
        f"~{per_copy:.1f} GiB per density-matrix copy (several copies live "
        f"at once); rerun with --force-large-n to proceed anyway"
    )


def run_chain_sweep(s: Settings):
    """Transport fidelity over chain sizes, orders, and noise rates.

    The logical input is a |+> control with a |0> payload; gates come
    from the internal calibrated parameter bank.
    """
    topology_kind = s.topology_kind
    circuits = {}
    for n in s.ns:
        topology = ChainTopology(topology_kind, n)
        for order in s.orders:
            circuits[(n, order)] = build_transport_circuit(topology, order)
    _check_lindblad_size(s, circuits.values())

    cases = [
        (n, order, gamma) for n in s.ns for order in s.orders for gamma in s.gammas
    ]

    def job(n, order, gamma):
        cfg = IntegratorConfig(dt=s.dt)
        return transport_fidelity(
            circuits[(n, order)], _KET_ZERO, noise=s.noise(gamma), cfg=cfg
        )

    values = run_jobs([lambda c=c: job(*c) for c in cases], s.workers)
    columns = ["n", "topology", "order", "gamma", "noise", "fidelity", "dt"]
    rows = [
        (n, topology_kind, order, gamma, s.noise_kind, value, s.effective_dt(1.0))
        for (n, order, gamma), value in zip(cases, values)
    ]
    return columns, rows


def run_state_map(s: Settings):
    """Fidelity-difference map plus its zero contour and cosine fit."""
    if s.topology_kind != "square_2d" or tuple(s.ns) != (4,):
        raise ConfigError("state-map runs on the square_2d topology with n = 4")
    if len(s.gammas) != 1:
        raise ConfigError("state-map takes a single gamma")
    if len(s.orders) != 2:
        raise ConfigError("state-map compares both gate orders; drop --order")
    gamma = s.gammas[0]

    thetas, phis = default_map_grid(*s.grid)
    topology = ChainTopology("square_2d", 4)
    fmap = fidelity_difference_map(
        topology, s.noise(gamma), thetas, phis, cfg=IntegratorConfig(dt=s.dt)
    )

    columns = ["theta", "phi", "f_cnot_first", "f_cnot_last", "delta_f"]
    rows = []
    for i, theta in enumerate(thetas):
        for j, phi in enumerate(phis):
            rows.append(
                (
                    theta,
                    phi,
                    fmap.fidelity_cnot_first[i, j],
                    fmap.fidelity_cnot_last[i, j],
                    fmap.delta[i, j],
                )
            )

    contour = zero_contour(fmap)
    if contour.shape[0] >= 2:
        a, b, residual = fit_cos_two_phi(contour)
        fit_rows = [
            (phi, theta, a * np.cos(2.0 * phi) + b) for phi, theta in contour
        ]
    else:
        a = b = residual = float("nan")
        fit_rows = [(phi, theta, float("nan")) for phi, theta in contour]
    contour_header = [
        ("fit_a", _fmt_float(a)),
        ("fit_b", _fmt_float(b)),
        ("fit_rms_residual", _fmt_float(residual)),
    ]
    contour_columns = ["phi", "theta", "fit_theta"]
    return columns, rows, (contour_columns, fit_rows, contour_header)


def contour_path(out: str) -> str:
    return out[: -len(".csv")] + ".contour.csv" if out.endswith(".csv") else out + ".contour.csv"


def run_calibrate(s: Settings):
    """Search pulse parameters; report the best record even on failure."""
    gate = s.gate
    if gate == "both":
        raise ConfigError("calibrate takes a single gate kind, not 'both'")
    problem = CalibrationProblem(
        kind=gate,
        amplitude_bounds=s.amplitude_bounds,
        width_bounds=s.width_bounds,
    )
    result = calibrate(problem, rng_seed=s.seed)
    pairs = problem.parameter_pairs(result.params)
    areas = analytic_channel_areas(pairs)

    columns = ["gate"]
    row: list = [gate]
    for index, (amplitude, width) in enumerate(pairs, start=1):
        columns += [f"amplitude_{index}", f"width_{index}", f"area_{index}"]
        row += [amplitude, width, areas[index - 1]]
    columns += [
        "objective",
        "f_00",
        "f_01",
        "f_10",
        "f_11",
        "f_superposition",
        "success",
        "seed_index",
        "n_evaluations",
    ]
    row += [result.objective_value, *result.per_state_fidelities]
    row += [result.success, result.seed_index, result.n_evaluations]
    return columns, [tuple(row)], result.success


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Spin-chain transport simulator: calibration, sweeps, maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--gate", choices=list(GATE_KINDS) + ["both"])
        p.add_argument("--noise", choices=["none", "dephasing", "amp"])
        p.add_argument("--gamma", help="comma-separated decay rates (inverse slots)")
        p.add_argument("--topology", choices=["1d", "2d"])
        p.add_argument("--order", choices=["cnot-first", "cnot-last", "both"])
        p.add_argument("--n", help="comma-separated chain sizes")
        p.add_argument("--alpha", help="comma-separated duration factors")
        p.add_argument("--grid", help="map resolution, e.g. 64x64")
        p.add_argument("--dt", type=float, help="integrator step (slot units)")
        p.add_argument("--workers", type=int, help="parallel worker count")
        p.add_argument("--seed", type=int, help="seed for calibration starts")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--force-large-n", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_CONFIG if code not in (0, None) else EXIT_OK

    exit_code = EXIT_OK
    try:
        settings = resolve_settings(args)
        started = time.perf_counter()
        if settings.command == "trace":
            columns, rows = run_trace(settings)
        elif settings.command == "duration-sweep":
            columns, rows = run_duration_sweep(settings)
        elif settings.command == "chain-sweep":
            columns, rows = run_chain_sweep(settings)
        elif settings.command == "state-map":
            columns, rows, contour = run_state_map(settings)
        else:
            columns, rows, success = run_calibrate(settings)
            if not success:
                exit_code = EXIT_CALIBRATION
        wall = time.perf_counter() - started
        header = settings_header(settings)
        write_csv(settings.out, header, columns, rows, wall)
        if settings.command == "state-map":
            contour_columns, contour_rows, contour_extra = contour
            write_csv(
                contour_path(settings.out),
                header + contour_extra,
                contour_columns,
                contour_rows,
                wall,
            )
        if exit_code == EXIT_CALIBRATION:
            print(
                "calibration failed to reach the success threshold; "
                f"best record written to {settings.out}",
                file=sys.stderr,
            )
        return exit_code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"integrator abort: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
