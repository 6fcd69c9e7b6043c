"""The benchmark's seed-0 commands still reproduce its reference bodies.

``perfbench/run.py`` compares every row it produces with the bodies under
``perfbench/reference/``. This runs the same seed-0 commands in-process
through ``cli.main``, with the benchmark's own cell tolerance, so a change
that moves a benchmarked number fails here first. ``duration-sweep`` runs
only its first three default duration factors. Nothing under
``perfbench/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from spinchain import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CELL_TOL = 1e-7  # perfbench/check.py: 1e-7 * max(1, |ref|)
SWEPT_ALPHAS = next(row for row in cli.SETTINGS if row.name == "alphas").default[:3]


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def read_body(path):
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def cell_matches(cell: str, ref: str) -> bool:
    if cell == ref:
        return True
    try:
        value, ref_value = float(cell), float(ref)
    except ValueError:
        return False
    return abs(value - ref_value) <= CELL_TOL * max(1.0, abs(ref_value))


@pytest.mark.parametrize("workload", ["ladder-amp", "duration-sweep", "stepwise-mix"])
def test_seed_zero_bodies_match_the_benchmark_reference(tmp_path, workload):
    workloads = load_workloads()
    for command in workloads.WORKLOADS[workload](0):
        argv = workloads.command_argv(command, str(tmp_path))
        if workload == "duration-sweep":
            argv += ["--alpha", ",".join(repr(a) for a in SWEPT_ALPHAS)]
        assert cli.main(argv) == 0, argv
        for name in command.outputs:
            columns, rows = read_body(tmp_path / name)
            ref_columns, ref_rows = read_body(PERFBENCH / "reference" / workload / name)
            if workload == "duration-sweep":
                durations = {cli._fmt_float(a) for a in SWEPT_ALPHAS}
                at = columns.index("duration")
                ref_rows = [row for row in ref_rows if row[at] in durations]
            assert columns == ref_columns
            assert len(rows) == len(ref_rows) > 0
            for row, ref in zip(rows, ref_rows):
                bad = [(c, x, y) for c, x, y in zip(columns, row, ref) if not cell_matches(x, y)]
                assert not bad, (name, bad)
