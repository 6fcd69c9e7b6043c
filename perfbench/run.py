"""spinchain benchmark: CLI workloads end to end, and a traced run per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload ladder-amp --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --self-test             # the checker catches faults

A run first measures set-up in ``SETUP_PROBES`` fresh interpreters, then
runs passes back to back for ``--seconds`` (at least one). Each pass is a
fresh interpreter running the workload's commands through
``spinchain.cli.main`` with ``--workers 1``, because users pay imports,
the calibration bank and propagator builds on every CLI call. Every
output row is checked (see check.py).

With ``--trace 1`` the run alternates traced and untraced passes (at
least two traced and one untraced). The traced passes' spans give the
per-layer metrics; the difference between the two kinds' median sweep
times is the tracing overhead. The exact counts are compared between the
traced passes of the run, and any that differ are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (cases) and ``metrics``. The error rate is
``failed / attempted``. The program is built from ``src/`` of the
checkout; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_command, read_body
from tracer import EXACT_COUNTS, PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS, Command, command_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
REFERENCE = HERE / "reference"

SETUP_PROBES = 3
# Every run must end within 180 s; children are killed past this.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_ALL = {
    **PER_LAYER_UNITS,
    "trace.sweep_s": "s",
    "trace.untraced_sweep_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Per-layer times spent in set-up, not in the sweep.
SETUP_LAYER_METRICS = {"cli.import_s", "calibration.bank_s"}


class SetupError(RuntimeError):
    """The program could not be imported or set up at all."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # A fixed hash seed removes one source of pass-to-pass variation.
    env["PYTHONHASHSEED"] = "0"
    # One thread per pass: passes must not compete with each other or
    # with BLAS threads on a small shared machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(commands: list[list[str]], trace: bool, stem: Path, deadline: float):
    """Run child.py once; return (result or None, stderr text)."""
    spec, result = stem.with_suffix(".spec.json"), stem.with_suffix(".result.json")
    spec.write_text(json.dumps({"src": str(SRC), "commands": commands, "trace": trace}))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "run deadline passed before the child started"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec), str(result)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"child killed after {timeout:.0f} s"
    if proc.returncode != 0 or not result.is_file():
        return None, proc.stderr.strip()[-4000:]
    return json.loads(result.read_text()), proc.stderr


def run_pass(workload: str, seed: int, index: int, trace: bool, deadline: float) -> dict:
    outdir = RUNS / workload / f"pass{index}"
    outdir.mkdir(parents=True)
    commands = WORKLOADS[workload](seed)
    seed0 = WORKLOADS[workload](0)
    argvs = [command_argv(c, str(outdir)) for c in commands]
    result, stderr = run_child(argvs, trace, outdir / "child", deadline)
    if result:
        codes, notes = result["exit_codes"], list(result["errors"])
    else:
        codes, notes = [None] * len(commands), [f"pass {index} crashed: {stderr}"]
    cases = []
    for command, reference, code in zip(commands, seed0, codes):
        ok, command_notes = check_command(
            command, outdir, code, REFERENCE / workload, command.argv == reference.argv
        )
        cases += ok
        notes += command_notes
    return {"result": result, "traced": trace, "attempted": len(cases),
            "failed": cases.count(False), "notes": notes}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then passes for ``seconds``; raw samples per metric."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    shutil.rmtree(RUNS / workload, ignore_errors=True)
    (RUNS / workload).mkdir(parents=True)

    setups = []
    # The first probe compiles bytecode and warms the file cache; it is
    # not a sample.
    for k in range(1 if trace else SETUP_PROBES + 1):
        probe, stderr = run_child([], False, RUNS / workload / f"setup{k}", deadline)
        if probe is None:
            raise SetupError(stderr)
        if k > 0:
            setups.append(probe["setup_s"])

    passes = []
    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(workload, seed, len(passes), traced, deadline))
        last = time.monotonic() - pass_started
        if time.monotonic() + last > deadline:
            break
        if trace and len(passes) < 3:
            continue
        if time.monotonic() - started + last > seconds:
            break
    return {"setups": setups, "passes": passes}


def percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {value:.4f}"
    return "no percentile has 10 samples beyond it"


def per_layer(run: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced passes) and notes on them."""
    untraced = [p["result"] for p in run["passes"] if p["result"] and not p["traced"]]
    traced = [p["result"] for p in run["passes"] if p["result"] and p["traced"]]
    if not untraced or not traced:
        raise SetupError("a traced run needs one untraced and one traced pass")
    per_pass = []
    for result in traced:
        m = layer_metrics(result["spans"])
        m["cli.import_s"] = result["import_s"]
        m["trace.sweep_s"] = result["sweep_s"]
        m["trace.spans"] = float(len(result["spans"]))
        per_pass.append(m)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.untraced_sweep_s"] = statistics.median(r["sweep_s"] for r in untraced)
    metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - metrics["trace.untraced_sweep_s"]

    if len(per_pass) < 2:
        notes = ["exact counts not compared: only one traced pass fitted the deadline"]
    else:
        differ = [n for n in EXACT_COUNTS if len({m[n] for m in per_pass}) > 1]
        notes = [f"count {n} differs between traced passes: {[m[n] for m in per_pass]}"
                 for n in differ]
        if not differ:
            notes.append(f"exact counts repeat over {len(per_pass)} traced passes")
    missing = sorted({t for r in traced for t in r["missing_targets"]})
    return metrics, notes + [f"wrap target not found: {t}" for t in missing]


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its summary lines and return the result."""
    run = measure(workload, seed, seconds, trace)
    attempted = sum(p["attempted"] for p in run["passes"])
    failed = sum(p["failed"] for p in run["passes"])
    passes = len(run["passes"])
    print(f"== {workload} seed {seed} trace {int(trace)}: {passes} pass(es), "
          f"{attempted} cases, {failed} failed")
    print(f"   {'error_rate':<12} {failed / attempted:.4g} ({failed}/{attempted} cases)")
    for p in run["passes"]:
        for note in p["notes"][:20]:
            print(f"   check: {note}")

    if not trace:
        done = [p["result"] for p in run["passes"] if p["result"]]
        samples = {
            "setup_s": run["setups"] + [r["setup_s"] for r in done],
            "sweep_s": [r["sweep_s"] for r in done],
            "peak_rss_mb": [r["peak_rss_mb"] for r in done],
        }
        metrics = {}
        for name, values in samples.items():
            if not values:
                raise SetupError(f"no pass produced {name}")
            metrics[name] = statistics.median(values)
            print(f"   {name:<12} median {metrics[name]:.4f} {END_TO_END_UNITS[name]:<4}"
                  f" ({percentile_note(values)}; n={len(values)};"
                  f" samples {' '.join(f'{v:.4g}' for v in values)})")
        units = END_TO_END_UNITS
    else:
        metrics, notes = per_layer(run)
        for note in notes:
            print(f"   trace: {note}")
        sweep = metrics["trace.sweep_s"]
        for name, unit in PER_LAYER_ALL.items():
            share = ""
            if unit == "s" and not name.startswith("trace.") and name not in SETUP_LAYER_METRICS:
                share = f"  ({100.0 * metrics[name] / sweep:5.1f}% of traced sweep)"
            print(f"   {name:<34} {metrics[name]:>12.6g} {unit}{share}")
        units = PER_LAYER_ALL
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _write_body(path: Path, columns: list[str], rows: list[list[str]]) -> None:
    path.write_text("\n".join(",".join(r) for r in [columns] + rows) + "\n")


def _fidelity_column(columns: list[str]) -> int:
    return next(i for i, c in enumerate(columns) if c == "fidelity" or c.startswith("f_"))


def self_test() -> int:
    """Show that faulty output raises error_rate, at seed 0 and at other seeds."""
    outcomes = []
    for workload, make in WORKLOADS.items():
        refdir = REFERENCE / workload
        outdir = RUNS / "selftest" / workload
        shutil.rmtree(outdir, ignore_errors=True)
        shutil.copytree(refdir, outdir)

        def failed(seed: int, exit_code: int = 0) -> int:
            return sum(
                check_command(c, outdir, exit_code, refdir, c.argv == c0.argv)[0].count(False)
                for c, c0 in zip(make(seed), make(0))
            )

        outcomes.append((f"{workload}: reference bodies pass", failed(0) == 0))
        outcomes.append((f"{workload}: nonzero exit fails", failed(0, exit_code=2) > 0))
        target = outdir / make(0)[0].outputs[0]
        columns, rows = read_body(target)
        col = _fidelity_column(columns)
        rows[0][col] = repr(float(rows[0][col]) + 1e-5)
        _write_body(target, columns, rows)
        outcomes.append((f"{workload}: perturbed cell fails", failed(0) > 0))

        # Seed 1: the command whose arguments differ from seed 0 is checked
        # for structure only. Its reference body, with the requested inputs
        # written in, passes; a fidelity that is not a number fails.
        shutil.rmtree(outdir)
        shutil.copytree(refdir, outdir)
        command = next(c for c, c0 in zip(make(1), make(0)) if c.argv != c0.argv)
        target = outdir / command.outputs[0]
        columns, rows = read_body(target)
        for name, values in command.expect.items():
            for row, value in zip(rows, values):
                row[columns.index(name)] = value if isinstance(value, str) else repr(value)
        _write_body(target, columns, rows)
        outcomes.append((f"{workload}: seed-1 {command.stem} body passes", failed(1) == 0))
        rows[0][_fidelity_column(columns)] = "None"
        _write_body(target, columns, rows)
        outcomes.append((f"{workload}: seed-1 non-numeric fidelity fails", failed(1) > 0))

    # A real child whose command exits nonzero (gate 'both' is a config error).
    outdir = RUNS / "selftest" / "exit"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    command = next(c for c in WORKLOADS["stepwise-mix"](0) if c.argv[0] == "calibrate")
    forced = Command(command.stem, command.argv + ("--gate", "both"))
    result, stderr = run_child(
        [command_argv(forced, str(outdir))], False, outdir / "child",
        time.monotonic() + RUN_DEADLINE_S,
    )
    code = result["exit_codes"][0] if result else None
    ok, _ = check_command(forced, outdir, code, REFERENCE / "stepwise-mix", True)
    outcomes.append((f"forced exit code {code} fails its case", ok == [False]))

    for label, passed in outcomes:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return 0 if all(passed for _, passed in outcomes) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "spinchain" / "cli.py").is_file():
        print(f"no spinchain source under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: report(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
