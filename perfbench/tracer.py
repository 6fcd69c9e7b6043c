"""Outside-in spans around spinchain's public functions.

The benchmark does not edit the program. Instead it replaces public
functions at the module attributes the program calls them through with
timing wrappers, so the spans follow whatever path the CLI takes. Spans
stay in memory and are written out when the pass ends.

A span is ``[name, start, end, parent, case, tags]``: ``parent`` is the
index of the enclosing span (or -1) and ``case`` groups the spans of one
sweep case. Each direct child of a ``cli.main`` span starts a new case.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

_COMPLEX_BYTES = 16


def _schedule_tags(schedule, state) -> dict:
    # Bytes of the register passed in (16 bytes per complex entry), so a
    # density matrix on n qubits reads 16 * 4**n: computed, not measured.
    return {
        "slots": int(schedule.num_slots),
        "pair_gates": len(schedule.entries),
        "register_bytes": _COMPLEX_BYTES * int(getattr(state, "size", 0)),
    }


def _lindblad_tags(args, kwargs, result) -> dict:
    rho, schedule = args[0], args[1]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    tags = _schedule_tags(schedule, rho)
    tags["method"] = cfg.method if cfg is not None else "rk4"
    tags["n"] = int(rho.shape[0]).bit_length() - 1
    return tags


def _unitary_tags(args, kwargs, result) -> dict:
    return _schedule_tags(args[1], args[0])


def _csv_tags(args, kwargs, result) -> dict:
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    return {"rows": len(rows)}


def _calibrate_tags(args, kwargs, result) -> dict:
    return {"evaluations": int(result.n_evaluations)}


# (module, attribute, span name, tagger). One public function may be
# reached through several modules; each import site is wrapped.
TARGETS = (
    ("spinchain.cli", "write_csv", "cli.write_csv", _csv_tags),
    ("spinchain.cli", "calibrate", "calibration.calibrate", _calibrate_tags),
    ("spinchain.circuits", "calibrated_gate_params", "calibration.bank", None),
    ("spinchain.cli", "build_transport_circuit", "circuits.build", None),
    ("spinchain.circuits", "build_transport_circuit", "circuits.build", None),
    ("spinchain.cli", "transport_fidelity", "circuits.transport_fidelity", None),
    ("spinchain.circuits", "transport_reduced_state", "circuits.reduced_state", None),
    ("spinchain.circuits", "transport_input", "circuits.input", None),
    ("spinchain.cli", "fidelity_difference_map", "circuits.map", None),
    ("spinchain.cli", "zero_contour", "circuits.contour", None),
    ("spinchain.cli", "fit_cos_two_phi", "circuits.contour", None),
    ("spinchain.cli", "gate_fidelity", "dynamics.gate_fidelity", None),
    ("spinchain.cli", "evolve_lindblad", "dynamics.evolve_lindblad", _lindblad_tags),
    ("spinchain.circuits", "evolve_lindblad", "dynamics.evolve_lindblad", _lindblad_tags),
    ("spinchain.dynamics", "evolve_lindblad", "dynamics.evolve_lindblad", _lindblad_tags),
    ("spinchain.cli", "evolve_unitary", "dynamics.evolve_unitary", _unitary_tags),
    ("spinchain.circuits", "evolve_unitary", "dynamics.evolve_unitary", _unitary_tags),
    ("spinchain.dynamics", "evolve_unitary", "dynamics.evolve_unitary", _unitary_tags),
    ("spinchain.circuits", "partial_trace_keep_last_two", "operators.partial_trace", None),
    ("spinchain.cli", "fidelity_to_pure", "operators.fidelity", None),
    ("spinchain.circuits", "fidelity_to_pure", "operators.fidelity", None),
    ("spinchain.dynamics", "fidelity_to_pure", "operators.fidelity", None),
    ("spinchain.cli", "overlap_fidelity", "operators.fidelity", None),
    ("spinchain.dynamics", "overlap_fidelity", "operators.fidelity", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._case = "setup"
        self._cases = 0
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and self.spans[parent][0] == "cli.main":
            self._cases += 1
            case = f"{self.spans[parent][4]}.{self._cases}"
        else:
            case = self.spans[parent][4] if parent >= 0 else self._case
        self.spans.append([name, time.perf_counter(), 0.0, parent, case, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, case: str | None = None, **kwargs):
        """Run ``fn`` inside a span; ``case`` names a new top-level case."""
        if case is not None:
            self._case, self._cases = case, 0
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, name: str, fn, tagger=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if tagger is not None:
                self.spans[index][5] = tagger(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module_name, attr, name, tagger in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, tagger))


# Per-layer metrics a traced pass yields, with units. ``pulses`` and
# ``hamiltonians`` have none of their own: their public calls sit below
# timer resolution and are counted inside circuits.build_s and the
# dynamics spans.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_rows": "count",
    "cli.self_s": "s",
    "calibration.bank_s": "s",
    "calibration.calibrate_s": "s",
    "calibration.evaluations": "count",
    "calibration.self_s": "s",
    "circuits.input_s": "s",
    "circuits.build_s": "s",
    "circuits.map_s": "s",
    "circuits.contour_s": "s",
    "circuits.self_s": "s",
    "dynamics.lindblad_factored_s": "s",
    "dynamics.lindblad_factored_n10_s": "s",
    "dynamics.lindblad_factored_n12_s": "s",
    "dynamics.lindblad_rk4_s": "s",
    "dynamics.unitary_s": "s",
    "dynamics.gate_fidelity_p50_s": "s",
    "dynamics.gate_fidelity_p90_s": "s",
    "dynamics.slots": "count",
    "dynamics.pair_gates": "count",
    "dynamics.register_mb_max": "MiB",
    "dynamics.self_s": "s",
    "operators.partial_trace_s": "s",
    "operators.fidelity_s": "s",
    "operators.fidelity_calls": "count",
    "operators.self_s": "s",
}

# Counts that must repeat exactly between runs of the same seed.
EXACT_COUNTS = (
    "dynamics.slots",
    "dynamics.pair_gates",
    "calibration.evaluations",
    "operators.fidelity_calls",
    "cli.csv_rows",
)

# Span name -> the inclusive-time metric it adds to.
_SPAN_TIMES = {
    "cli.write_csv": "cli.write_csv_s",
    "calibration.bank": "calibration.bank_s",
    "calibration.calibrate": "calibration.calibrate_s",
    "circuits.input": "circuits.input_s",
    "circuits.build": "circuits.build_s",
    "circuits.map": "circuits.map_s",
    "circuits.contour": "circuits.contour_s",
    "dynamics.evolve_unitary": "dynamics.unitary_s",
    "operators.partial_trace": "operators.partial_trace_s",
    "operators.fidelity": "operators.fidelity_s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A layer's self time is its spans' time minus the part their child
    spans cover, over the sweep (set-up spans excluded); the pass is
    single-threaded, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    m: dict[str, float] = defaultdict(float)
    gate_fidelity = []
    for index, (name, start, end, _, case, tags) in enumerate(spans):
        duration = end - start
        tags = tags or {}
        if case != "setup":
            m[name.split(".")[0] + ".self_s"] += duration - covered[index]
        if name in _SPAN_TIMES:
            m[_SPAN_TIMES[name]] += duration
        if name == "operators.fidelity":
            m["operators.fidelity_calls"] += 1
        elif name == "dynamics.gate_fidelity":
            gate_fidelity.append(duration)
        elif name == "cli.write_csv":
            m["cli.csv_rows"] += tags.get("rows", 0)
        elif name == "calibration.calibrate":
            m["calibration.evaluations"] += tags.get("evaluations", 0)
        if name == "dynamics.evolve_lindblad" and "method" in tags:
            key = f"dynamics.lindblad_{tags['method']}"
            m[key + "_s"] += duration
            if tags["method"] == "factored" and tags["n"] in (10, 12):
                m[f"{key}_n{tags['n']}_s"] += duration
        if "slots" in tags:
            m["dynamics.slots"] += tags["slots"]
            m["dynamics.pair_gates"] += tags["pair_gates"]
            m["dynamics.register_mb_max"] = max(
                m["dynamics.register_mb_max"], tags["register_bytes"] / 2.0**20
            )
    if gate_fidelity:
        m["dynamics.gate_fidelity_p50_s"] = statistics.median(gate_fidelity)
        m["dynamics.gate_fidelity_p90_s"] = (
            statistics.quantiles(gate_fidelity, n=10)[-1]
            if len(gate_fidelity) > 1
            else gate_fidelity[0]
        )
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER_UNITS}
