"""One benchmark pass in a fresh interpreter.

Usage: ``python3 child.py SPEC.json RESULT.json``

SPEC holds ``src`` (the directory holding the ``spinchain`` package),
``commands`` (a list of CLI argument lists, run back to back through
``spinchain.cli.main``) and ``trace`` (install the span wrappers). With
no commands the pass only measures set-up: importing ``spinchain.cli``
and building the calibrated parameter bank, which every CLI call pays
before its first case.

RESULT receives the set-up and sweep times, the peak resident memory of
this process, each command's exit code and, when traced, the spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

EXIT_EXCEPTION = 1


def run(spec: dict) -> dict:
    started = time.perf_counter()
    import spinchain.cli as cli  # noqa: E402  (timed as part of set-up)
    import spinchain.calibration as calibration

    imported = time.perf_counter()
    package = os.path.realpath(os.path.dirname(cli.__file__))
    if os.path.dirname(package) != os.path.realpath(spec["src"]):
        raise ImportError(f"spinchain imported from {package}, not from {spec['src']}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def bank():
        calibration.calibrated_gate_params("swap")
        calibration.calibrated_gate_params("cnot")

    bank_started = time.perf_counter()
    if tracer is None:
        bank()
    else:
        tracer.call("calibration.bank", bank, case="setup")
    ready = time.perf_counter()

    exit_codes, errors = [], []
    for index, argv in enumerate(spec["commands"]):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv, case=f"c{index}")
        except Exception:  # a crash fails this command's cases; the pass goes on
            code = EXIT_EXCEPTION
            errors.append(traceback.format_exc())
        exit_codes.append(code)
    finished = time.perf_counter()

    result = {
        "import_s": imported - started,
        "bank_s": ready - bank_started,
        "setup_s": ready - started,
        "sweep_s": finished - ready,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
        "errors": errors,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing_targets"] = tracer.missing
    return result


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
