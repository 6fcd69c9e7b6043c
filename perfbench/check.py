"""Correctness check of one pass's CSV output.

A case fails when its command exits nonzero, or its row is missing,
non-finite or fails a check. Every command is checked structurally
(columns and row count as in the reference, every number finite,
fidelities in [0, 1], input columns as requested, and for the ladder F
non-increasing in n per order). A command whose arguments equal its
seed-0 arguments is also compared cell by cell with the reference body
recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import math
from pathlib import Path

from workloads import Command

# Absorbs the ~1e-8 window-edge rounding shift a correct integrator change
# may cause while still failing physics errors (the CSV prints 12 digits).
CELL_TOL = 1e-7
INPUT_TOL = 1e-9
# Rounding may put an exact 0 or 1 a few ulps outside [0, 1].
FIDELITY_SLACK = 1e-12


def read_body(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of a CSV, without its ``#`` header lines."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    if not lines:
        raise ValueError(f"{path.name} has no column line")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _is_fidelity(column: str) -> bool:
    return column == "fidelity" or column.startswith("f_")


def _cell_ok(column: str, cell: str, ref: str, compare: bool) -> bool:
    """A cell is numeric wherever the reference cell is; ``compare`` also
    holds it to the reference value."""
    value, ref_value = _number(cell), _number(ref)
    if value is None:
        return ref_value is None and (cell == ref or not compare)
    if not math.isfinite(value):
        return False
    if _is_fidelity(column) and not -FIDELITY_SLACK <= value <= 1.0 + FIDELITY_SLACK:
        return False
    if not compare:
        return True
    return ref_value is not None and abs(value - ref_value) <= CELL_TOL * max(1.0, abs(ref_value))


def _matches(expected, cell: str) -> bool:
    if isinstance(expected, str):
        return cell == expected
    value = _number(cell)
    return value is not None and abs(value - expected) <= INPUT_TOL * max(1.0, abs(expected))


def _check_rows(
    command, columns, rows, ref_columns, ref_rows, compare
) -> tuple[list[bool], list[str]]:
    notes = []
    if columns != ref_columns:
        return [False] * len(ref_rows), [f"{command.stem}: columns {columns} != {ref_columns}"]
    ok = []
    for index, ref_row in enumerate(ref_rows):
        if index >= len(rows) or len(rows[index]) != len(columns):
            ok.append(False)
            notes.append(f"{command.stem}: row {index} missing or ragged")
            continue
        row = rows[index]
        good = all(
            _cell_ok(col, cell, ref, compare)
            for col, cell, ref in zip(columns, row, ref_row)
        )
        for col, values in command.expect.items():
            good = good and _matches(values[index], row[columns.index(col)])
        if not good:
            notes.append(f"{command.stem}: row {index} fails: {','.join(row)}")
        ok.append(good)
    if len(rows) > len(ref_rows):
        ok = [False] * len(ok)
        notes.append(f"{command.stem}: {len(rows) - len(ref_rows)} extra rows")
    if command.monotone and len(rows) == len(ref_rows):
        _check_monotone(command, columns, rows, ok, notes)
    return ok, notes


def _check_monotone(command, columns, rows, ok, notes) -> None:
    """F must not increase with n for a fixed gate order; a row whose F is
    not a finite number fails and does not become the next row's bound."""
    n_col, order_col, f_col = (columns.index(c) for c in ("n", "order", "fidelity"))
    last = {}
    for index, row in enumerate(rows):
        f = _number(row[f_col]) if len(row) == len(columns) else None
        if f is None or not math.isfinite(f):
            ok[index] = False
            continue
        order, n = row[order_col], row[n_col]
        if order in last and f > last[order][1]:
            ok[index] = False
            notes.append(f"{command.stem}: F rises from n={last[order][0]} to n={n} ({order})")
        last[order] = (n, f)


def check_command(
    command: Command, outdir: Path, exit_code: int | None, refdir: Path, compare: bool
) -> tuple[list[bool], list[str]]:
    """Per-case pass/fail for one command, plus notes on each failure."""
    references = [read_body(refdir / name) for name in command.outputs]
    n_cases = len(references[0][1]) if command.row_cases else 1
    if exit_code != 0:
        return [False] * n_cases, [f"{command.stem}: exit code {exit_code}"]
    ok, notes = [], []
    for name, (ref_columns, ref_rows) in zip(command.outputs, references):
        try:
            columns, rows = read_body(outdir / name)
        except (OSError, ValueError) as exc:
            return [False] * n_cases, [f"{command.stem}: {name} unreadable: {exc}"]
        file_ok, file_notes = _check_rows(command, columns, rows, ref_columns, ref_rows, compare)
        ok.extend(file_ok)
        notes.extend(file_notes)
    if not command.row_cases:
        return [all(ok)], notes
    return ok, notes
