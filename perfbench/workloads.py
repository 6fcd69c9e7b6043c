"""The benchmark's workloads: CLI argument lists drawn from a seed.

Each workload is a closed loop with one client: a pass runs its commands
back to back in one fresh interpreter. Seed 0 gives the CLI defaults, so
the reference bodies under ``reference/`` and the baseline table in
ROADMAP.md are reproducible; other seeds draw new inputs whose cost is
the same as at seed 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Command:
    """One CLI call and what its output must satisfy beyond the reference.

    ``stem`` names the output file (``<stem>.csv``; ``state-map`` also
    writes ``<stem>.contour.csv``). ``row_cases`` makes every body row one
    case; otherwise the whole command is one case. ``expect`` maps input
    columns to the value each row must carry, in row order.
    """

    stem: str
    argv: tuple[str, ...]
    row_cases: bool = False
    expect: dict = field(default_factory=dict)
    monotone: bool = False

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.argv[0] == "state-map":
            return (f"{self.stem}.csv", f"{self.stem}.contour.csv")
        return (f"{self.stem}.csv",)


ORDERS = ("cnot_first", "cnot_last")
LADDER_NS = (4, 6, 8, 10, 12)
SWEEP_GAMMAS = (0.001, 0.01, 0.1)
SWEEP_ALPHAS = 30


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def ladder_amp(seed: int) -> list[Command]:
    gamma = 0.1 if seed == 0 else random.Random(seed).uniform(0.05, 0.2)
    argv = ("chain-sweep", "--topology", "2d", "--noise", "amp", "--gamma", _fmt(gamma))
    cases = [(n, order) for n in LADDER_NS for order in ORDERS]
    expect = {
        "n": [n for n, _ in cases],
        "order": [order for _, order in cases],
        "gamma": [float(_fmt(gamma))] * len(cases),
    }
    return [Command("ladder", argv, row_cases=True, expect=expect, monotone=True)]


def duration_sweep(seed: int) -> list[Command]:
    argv = ("duration-sweep",)
    expect = {}
    if seed != 0:
        rng = random.Random(seed)
        alphas = sorted(float(_fmt(10.0 ** rng.uniform(0.0, 2.0))) for _ in range(SWEEP_ALPHAS))
        argv += ("--alpha", ",".join(_fmt(a) for a in alphas))
        cases = [(g, gamma, a) for g in ("swap", "cnot") for gamma in SWEEP_GAMMAS for a in alphas]
        expect = {
            "gate": [c[0] for c in cases],
            "gamma": [c[1] for c in cases],
            "duration": [c[2] for c in cases],
        }
    return [Command("duration", argv, row_cases=True, expect=expect)]


def stepwise_mix(seed: int) -> list[Command]:
    return [
        Command("line", ("chain-sweep", "--topology", "1d", "--noise", "none"), row_cases=True),
        Command("trace", ("trace", "--gate", "cnot", "--noise", "dephasing", "--gamma", "0.01")),
        Command("calibrate", ("calibrate", "--gate", "cnot", "--seed", str(seed))),
        Command("state-map", ("state-map",)),
    ]


WORKLOADS = {
    "ladder-amp": ladder_amp,
    "duration-sweep": duration_sweep,
    "stepwise-mix": stepwise_mix,
}


def command_argv(command: Command, outdir: str) -> list[str]:
    """Full argument list: single-threaded, writing into ``outdir``."""
    return list(command.argv) + ["--workers", "1", "--out", f"{outdir}/{command.stem}.csv"]
