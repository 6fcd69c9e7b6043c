"""Command-line front end: experiment orchestration and CSV emission.

Five subcommands cover the simulator's experiments:

* ``calibrate``       — pulse-parameter search for one gate kind.
* ``trace``           — per-step gate fidelity and drive amplitudes.
* ``duration-sweep``  — gate fidelity versus stretched gate duration.
* ``chain-sweep``     — transport fidelity versus chain length.
* ``state-map``       — gate-order fidelity difference over payload states.

Every subcommand takes the same flags, which may come before or after
its name. Settings resolve in precedence order: command-line flags, then
the ``--config`` INI file, then built-in defaults. Every CSV starts with
``#``-prefixed header comments carrying the fully resolved configuration;
timestamps and wall time appear only there, so CSV bodies are
byte-identical across reruns. Every run is serial; ``--workers`` (and
``[run] workers``) is still parsed and checked, for compatibility with
existing command lines and INI files, but selects nothing.

Single-gate runs act on their pair alone, through the gate's real 16x16
Pauli-transfer slot map from ``dynamics.gate_superoperator``: ``kron(U,
U*)`` of the closed-form slot unitary, through one eigenbasis kernel, when
noiseless, pair RK4 when noisy, cached by gate, noise, duration and step
count; a fidelity is a dot product of Pauli vectors. ``duration-sweep``
builds the maps of each gate's (gamma, duration) cases together
(``dynamics.gate_superoperators``) and applies each to the input.
``trace`` reads the map after every step from the stream
``dynamics.gate_step_maps``, for all three inputs at once;
its noiseless steps are the closed form at cumulative pulse areas. A
slot or step map with an entry above 1, which no CPTP map has, is an
unstable step grid and aborts the run.
Transport contracts the circuit site by site (the same cached maps, held
to the same rule, plus idle-site channels), so a chain of any length
runs in time linear in its length.

Units: times in units of the base slot, pulse amplitudes in units of the
base energy scale (with hbar = 1), pulse widths in slot-squared, and
dephasing/damping rates in inverse slots.

Exit codes: 0 success, 2 configuration error (a bad flag or INI value,
an unknown INI key, a ``[experiment] kind`` that is not the subcommand,
a ``dt`` or duration factor whose step grid or rescaled pulses the
library cannot represent, an output path whose directory does not exist
or that is a directory, or an output file that cannot be written),
3 calibration failure, 4 integrator abort (trace drift, a pair generator
that breaks Hermiticity or trace preservation, a pair propagator that is
not finite and bounded, a slot map with an entry above 1, read by a
single gate or by transport, or lost normalisation), 5 internal error
(any other library ``ValueError``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from itertools import product
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .calibration import CalibrationProblem, calibrate
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
    IntegratorConfig,
    NoiseModel,
    NumericalError,
    _check_map_entries,
    _pauli_vector,
    _resolve_steps,
    gate_fidelity,
    gate_step_maps,
    gate_superoperators,
)
from .hamiltonians import (
    GATE_KINDS,
    STOCK_PARAMS,
    GateSpec,
    ideal_gate_matrix,
    rescale_channel_params,
)
from .pulses import gaussian

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_INTEGRATOR = 4
EXIT_INTERNAL = 5


class ConfigError(Exception):
    """A setting is missing, malformed, or inconsistent."""


# ---------------------------------------------------------------------------
# settings: one table row per key


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


def _show(value) -> str:
    """Header text of a resolved setting; ``None`` is an automatic value."""
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(_fmt_cell(v) for v in value)
    return _fmt_cell(value)


def _choice(what: str, names: dict):
    """Parser for a name; ``names`` maps every accepted spelling to its value."""

    def parse(text: str):
        if text not in names:
            raise ConfigError(f"unknown {what} {text!r}")
        return names[text]

    return parse


def _parser(convert, what: str, valid=None, rule: str = ""):
    """Parser that converts text, then checks the value against ``valid``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse {what} {text!r}") from exc
        if valid is not None and not valid(value):
            raise ConfigError(f"{what} {rule}")
        return value

    return parse


def _items(convert):
    """Converter for a nonempty comma-separated list."""

    def items(text: str) -> tuple:
        values = tuple(convert(tok) for tok in text.split(",") if tok.strip())
        if not values:
            raise ValueError("empty list")
        return values

    return items


@dataclass(frozen=True)
class Setting:
    """One setting: its attribute, header line, INI key, flag, default, parser.

    ``flag`` is ``None`` for INI-only keys. ``default`` is a value, or a
    function of the settings resolved so far (rows resolve in table order).
    Rows that share a ``header`` print as one comma-joined header line.
    """

    name: str
    header: str
    section: str
    key: str
    flag: str | None
    default: object
    parse: Callable[[str], object]
    help: str = ""
    show: Callable[[object], str] = _show


# A value comes from its flag, else its INI key, else its default; an empty
# value counts as unset. Flags hand their text to the same parser as the INI,
# so both accept the same spellings.
SETTINGS = (
    Setting("gate", "gate", "gate", "kind", "--gate",
            lambda v: "both" if v["command"] == "duration-sweep" else "swap",
            _choice("gate kind", {kind: kind for kind in GATE_KINDS + ("both",)}),
            "swap | cnot | cnot_rotated | both"),
    Setting("noise_kind", "noise", "noise", "kind", "--noise",
            lambda v: {"duration-sweep": "dephasing", "chain-sweep": "dephasing",
                       "state-map": "amplitude_damping"}.get(v["command"], "none"),
            _choice("noise kind", {"none": "none", "dephasing": "dephasing",
                                   "amp": "amplitude_damping",
                                   "amplitude_damping": "amplitude_damping"}),
            "none | dephasing | amp (amplitude_damping)"),
    Setting("gammas", "gamma", "noise", "gamma", "--gamma",
            lambda v: (0.0,) if v["noise_kind"] == "none"
            else (0.001, 0.01, 0.1) if v["command"] == "duration-sweep" else (0.1,),
            _parser(_items(float), "gamma", lambda xs: all(0.0 <= x < np.inf for x in xs),
                    "values must be finite and nonnegative"),
            "comma-separated decay rates (inverse slots)"),
    Setting("topology_kind", "topology", "topology", "kind", "--topology",
            lambda v: "square_2d" if v["command"] == "state-map" else "line_1d",
            _choice("topology", {"1d": "line_1d", "line_1d": "line_1d",
                                 "2d": "square_2d", "square_2d": "square_2d"}),
            "1d (line_1d) | 2d (square_2d)"),
    Setting("ns", "n", "topology", "n", "--n",
            lambda v: (4,) if v["command"] == "state-map"
            else (3, 4, 5, 6, 7, 8) if v["topology_kind"] == "line_1d"
            else (4, 6, 8, 10, 12),
            _parser(_items(int), "n"), "comma-separated chain sizes"),
    Setting("orders", "order", "topology", "order", "--order", ("cnot_first", "cnot_last"),
            _choice("gate order", {"cnot-first": ("cnot_first",),
                                   "cnot_first": ("cnot_first",),
                                   "cnot-last": ("cnot_last",),
                                   "cnot_last": ("cnot_last",),
                                   "both": ("cnot_first", "cnot_last")}),
            "cnot-first | cnot-last | both"),
    Setting("alphas", "alpha", "sweep", "alpha", "--alpha",
            tuple(float(a) for a in np.geomspace(1.0, 100.0, 30)),
            _parser(_items(float), "alpha", lambda xs: all(0.0 < x < np.inf for x in xs),
                    "values must be finite and positive"),
            "comma-separated duration factors"),
    Setting("grid", "grid", "map", "grid", "--grid", (64, 64),
            _parser(lambda text: tuple(int(k) for k in text.lower().split("x")), "grid",
                    lambda grid: len(grid) == 2 and min(grid) >= 2,
                    "must be two sizes of at least 2, like 64x64"),
            "map resolution, e.g. 64x64", lambda grid: f"{grid[0]}x{grid[1]}"),
    Setting("dt", "integrator_dt", "integrator", "dt", "--dt", None,
            _parser(float, "integrator dt", lambda dt: dt > 0.0, "must be positive"),
            "integrator step (slot units; must divide every slot)"),
    Setting("workers", "workers", "run", "workers", "--workers", 1,
            _parser(int, "workers", lambda w: w >= 1, "must be at least 1"),
            "accepted for compatibility; every run is serial"),
    Setting("seed", "seed", "run", "seed", "--seed", 0,
            _parser(int, "seed", lambda seed: seed >= 0, "must be nonnegative"),
            "seed for calibration starts"),
    Setting("out", "out", "run", "out", "--out", lambda v: f"{v['command']}.csv", str,
            "output CSV path"),
    Setting("amplitude_min", "amplitude_bounds", "calibration", "amplitude_min", None,
            0.0, _parser(float, "calibration amplitude_min")),
    Setting("amplitude_max", "amplitude_bounds", "calibration", "amplitude_max", None,
            50.0, _parser(float, "calibration amplitude_max")),
    Setting("width_min", "width_bounds", "calibration", "width_min", None,
            1e-4, _parser(float, "calibration width_min")),
    Setting("width_max", "width_bounds", "calibration", "width_max", None,
            1.0, _parser(float, "calibration width_max")),
)

# ``[experiment] kind`` names the subcommand a config file is written for.
CONFIG_KEYS = {(row.section, row.key) for row in SETTINGS} | {("experiment", "kind")}


class Settings(SimpleNamespace):
    """Resolved settings: ``command`` plus one attribute per ``SETTINGS`` row."""

    def noise(self, gamma: float) -> NoiseModel:
        return NoiseModel(self.noise_kind, gamma)


def load_config_file(path: str) -> dict[str, dict[str, str]]:
    import configparser  # only ``--config`` runs need it
    # values are literal, as flags are: a ``%`` is not an interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    sections = {section for section, _ in CONFIG_KEYS}
    data: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if (section, key) not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            data.setdefault(section, {})[key] = value.strip()
    return data


def resolve_settings(args: argparse.Namespace) -> Settings:
    cfg = load_config_file(args.config) if args.config else {}
    kind = cfg.get("experiment", {}).get("kind")
    if kind and kind != args.command:
        raise ConfigError(
            f"[experiment] kind {kind!r} does not match the subcommand {args.command!r}"
        )

    values = {"command": args.command}
    for row in SETTINGS:
        text = getattr(args, row.name, None) or cfg.get(row.section, {}).get(row.key)
        if text:
            values[row.name] = row.parse(text)
        else:
            values[row.name] = row.default(values) if callable(row.default) else row.default
    s = Settings(**values)

    if s.noise_kind == "none" and any(g > 0 for g in s.gammas):
        raise ConfigError("noise kind 'none' cannot take positive gamma")
    for what, lo, hi in (
        ("amplitude", s.amplitude_min, s.amplitude_max),
        ("width", s.width_min, s.width_max),
    ):
        if not hi > lo:
            raise ConfigError(f"calibration {what} bounds are empty")
    if s.width_min <= 0:
        raise ConfigError("width lower bound must be positive")
    # The library's own rules, checked before any case runs: dt must divide
    # every slot the command integrates over, each swept gate's pulses must
    # rescale to every stretched slot, and each chain must exist.
    slots = {"calibrate": (), "duration-sweep": s.alphas}.get(s.command, (1.0,))
    swept = _swept_kinds(s) if s.command == "duration-sweep" else ()
    chains = s.ns if s.command in ("chain-sweep", "state-map") else ()
    try:
        for slot in slots:
            _resolve_steps(slot, IntegratorConfig(dt=s.dt))
            for kind in swept:
                rescale_channel_params(STOCK_PARAMS[kind], 0.0, slot)
        for n in chains:
            ChainTopology(s.topology_kind, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # every file the command writes must have a place to go before it runs
    for suffix in ("", ".contour") if s.command == "state-map" else ("",):
        path = output_path(s.out, suffix)
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"output directory {folder!r} does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"output path {path!r} is a directory")
    return s


def settings_header(s: Settings) -> list[tuple[str, str]]:
    pairs = {"command": s.command}
    for row in SETTINGS:
        shown = row.show(getattr(s, row.name))
        pairs[row.header] = f"{pairs[row.header]},{shown}" if row.header in pairs else shown
    return sorted(pairs.items())


# ---------------------------------------------------------------------------
# CSV emission


# ``%`` codes of the exact cell types they format as :func:`_fmt_cell` does
# (``np.float64`` through ``float``); other cells go through ``_fmt_cell``.
_TEMPLATE_CODES = {float: "%.12g", np.float64: "%.12g", int: "%d", str: "%s"}


@lru_cache(maxsize=128)
def _row_template(types: tuple) -> tuple[str, frozenset[int]]:
    """The ``%`` template of a CSV row whose cells have exact ``types``, and
    the positions of the cells to pass through :func:`_fmt_cell` first."""
    codes = [_TEMPLATE_CODES.get(t) for t in types]
    other = frozenset(i for i, code in enumerate(codes) if code is None)
    return ",".join(code or "%s" for code in codes), other


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
        template, other = _row_template(tuple(map(type, row)))
        if other:
            row = [_fmt_cell(cell) if i in other else cell for i, cell in enumerate(row)]
        lines.append(template % tuple(row))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def output_path(out: str, suffix: str) -> str:
    """``out`` itself for the main file; ``<stem><suffix>.csv`` beside it."""
    if not suffix:
        return out
    return (out[: -len(".csv")] if out.endswith(".csv") else out) + suffix + ".csv"


# ---------------------------------------------------------------------------
# subcommand runners


def _single_gate(s: Settings) -> GateSpec:
    if s.gate == "both":
        raise ConfigError(f"{s.command} takes a single gate kind, not 'both'")
    return GateSpec(s.gate, (1, 2), STOCK_PARAMS[s.gate])


def _swept_kinds(s: Settings) -> tuple[str, ...]:
    return ("swap", "cnot") if s.gate == "both" else (s.gate,)


def _single_gamma(s: Settings) -> float:
    if len(s.gammas) != 1:
        raise ConfigError(f"{s.command} takes a single gamma")
    return s.gammas[0]


_KET_ZERO = np.array([1.0, 0.0], dtype=complex)
_KET_ONE = np.array([0.0, 1.0], dtype=complex)
_KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

TRACE_INPUTS = (
    ("f_q1_zero", _KET_ZERO),
    ("f_q1_one", _KET_ONE),
    ("f_q1_plus", _KET_PLUS),
)


def run_trace(s: Settings):
    """Per-step fidelity toward the ideal gate output, plus drive values.

    The ``j_channel_*`` columns sample each channel's Gaussian at every
    step time without the cut at the slot edge: the t = 1 row prints the
    pulse tail, though no kernel applies drive at the slot-end point.
    """
    gate = _single_gate(s)
    noise = s.noise(_single_gamma(s))
    ideal = ideal_gate_matrix(gate.kind)
    kets = np.array([np.kron(control, _KET_ZERO) for _, control in TRACE_INPUTS])
    p0, targets = (_pauli_vector(k[:, :, None] * k[:, None].conj()) for k in (kets, kets @ ideal.T))
    # a fidelity target . (map @ p0) / 4 is linear in the map: one column per input
    readout = (targets[:, :, None] * p0[:, None, :]).reshape(len(kets), 256).T / 4.0

    times, fidelities = [], []
    for ts, maps in gate_step_maps(gate, noise, cfg=IntegratorConfig(dt=s.dt)):
        _check_map_entries(maps, f"a {gate.kind} step map up to t = {ts[-1]:.6g}")
        times.append(ts)
        fidelities.append(maps.reshape(len(ts), 256) @ readout)
    times = np.concatenate(times)

    columns = ["t"] + [name for name, _ in TRACE_INPUTS]
    columns += [f"j_channel_{i + 1}" for i in range(len(gate.params))]
    drives = gaussian(times, *rescale_channel_params(gate.params, 0.0, 1.0))
    rows = np.column_stack([times, np.concatenate(fidelities), *drives]).tolist()
    return [("", [], columns, rows)], EXIT_OK


def run_duration_sweep(s: Settings):
    """Gate fidelity for stretched gates, over gates x gammas x alphas."""
    psi0 = np.kron(_KET_PLUS, _KET_ZERO)
    cfg = IntegratorConfig(dt=s.dt)
    rows = []
    for kind in _swept_kinds(s):
        # every (gamma, alpha) case of one gate shares its pair builds
        gate = GateSpec(kind, (1, 2), STOCK_PARAMS[kind])
        noises = [s.noise(gamma) for gamma in s.gammas]
        gate_superoperators(gate, noises, s.alphas, cfg)
        for gamma, noise in zip(s.gammas, noises):
            for alpha in s.alphas:
                value = gate_fidelity(psi0, gate, noise, alpha, cfg)
                rows.append((alpha, gamma, kind, value, _resolve_steps(alpha, cfg)[1]))
    columns = ["duration", "gamma", "gate", "fidelity", "dt"]
    return [("", [], columns, rows)], EXIT_OK


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

    cfg = IntegratorConfig(dt=s.dt)
    dt = _resolve_steps(1.0, cfg)[1]
    rows = []
    for n, order, gamma in product(s.ns, s.orders, s.gammas):
        value = transport_fidelity(circuits[(n, order)], _KET_ZERO, noise=s.noise(gamma), cfg=cfg)
        rows.append((n, topology_kind, order, gamma, s.noise_kind, value, dt))
    columns = ["n", "topology", "order", "gamma", "noise", "fidelity", "dt"]
    return [("", [], columns, rows)], EXIT_OK


def run_state_map(s: Settings):
    """Fidelity-difference map plus its zero contour and cosine fit."""
    if s.topology_kind != "square_2d" or tuple(s.ns) != (4,):
        raise ConfigError("state-map runs on the square_2d topology with n = 4")
    gamma = _single_gamma(s)
    if len(s.orders) != 2:
        raise ConfigError("state-map compares both gate orders; drop --order")

    thetas, phis = default_map_grid(*s.grid)
    topology = ChainTopology("square_2d", 4)
    fmap = fidelity_difference_map(
        topology, s.noise(gamma), thetas, phis, cfg=IntegratorConfig(dt=s.dt)
    )

    columns = ["theta", "phi", "f_cnot_first", "f_cnot_last", "delta_f"]
    first, last, delta = fmap.fidelity_cnot_first, fmap.fidelity_cnot_last, fmap.delta
    rows = [
        (theta, phi, first[i, j], last[i, j], delta[i, j])
        for i, theta in enumerate(thetas)
        for j, phi in enumerate(phis)
    ]

    # Fewer than two contour points leave the fit, and every fitted theta, NaN.
    contour = zero_contour(fmap)
    a = b = residual = float("nan")
    if contour.shape[0] >= 2:
        a, b, residual = fit_cos_two_phi(contour)
    fit_rows = [(phi, theta, a * np.cos(2.0 * phi) + b) for phi, theta in contour]
    fit = {"fit_a": a, "fit_b": b, "fit_rms_residual": residual}
    contour_header = [(key, _fmt_float(value)) for key, value in fit.items()]
    contour_columns = ["phi", "theta", "fit_theta"]
    return [
        ("", [], columns, rows),
        (".contour", contour_header, contour_columns, fit_rows),
    ], EXIT_OK


def run_calibrate(s: Settings):
    """Search pulse parameters; report the best record even on failure."""
    gate = _single_gate(s).kind
    problem = CalibrationProblem(
        kind=gate,
        amplitude_bounds=(s.amplitude_min, s.amplitude_max),
        width_bounds=(s.width_min, s.width_max),
    )
    result = calibrate(problem, rng_seed=s.seed)
    pairs = problem.parameter_pairs(result.params)

    columns = ["gate"]
    row: list = [gate]
    for index, ((amplitude, width), area) in enumerate(zip(pairs, result.areas), start=1):
        columns += [f"amplitude_{index}", f"width_{index}", f"area_{index}"]
        row += [amplitude, width, area]
    columns += ["objective", "f_00", "f_01", "f_10", "f_11", "f_superposition"]
    columns += ["success", "seed_index", "n_evaluations"]
    row += [result.objective_value, *result.per_state_fidelities]
    row += [result.success, result.seed_index, result.n_evaluations]
    return [("", [], columns, [tuple(row)])], (
        EXIT_OK if result.success else EXIT_CALIBRATION
    )


RUNNERS = {
    "calibrate": run_calibrate,
    "trace": run_trace,
    "duration-sweep": run_duration_sweep,
    "chain-sweep": run_chain_sweep,
    "state-map": run_state_map,
}


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process; ``parse_args`` does not change it."""
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Spin-chain transport simulator: calibration, sweeps, maps.",
    )
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("--config", help="INI config file; flags override it")
    for row in (row for row in SETTINGS if row.flag):
        parser.add_argument(row.flag, dest=row.name, metavar=row.flag[2:].upper(),
                            help=row.help)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        settings = resolve_settings(args)
        started = time.perf_counter()
        files, exit_code = RUNNERS[settings.command](settings)
        wall = time.perf_counter() - started
        header = settings_header(settings)
        for suffix, extra, columns, rows in files:
            write_csv(output_path(settings.out, suffix), header + extra, columns, rows, wall)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"integrator abort: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if exit_code == EXIT_CALIBRATION:
        print("calibration failed to reach the success threshold; "
              f"best record written to {settings.out}", file=sys.stderr)
    return exit_code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
