"""End-to-end tests of the command-line interface (run in-process)."""

import configparser
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinchain import circuits, cli, dynamics
from spinchain.hamiltonians import rescale_channel_params
from spinchain.pulses import gaussian


def run(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out


def read_lines(path):
    return path.read_text().splitlines()


def body_of(path):
    """Column row plus data rows (comments stripped)."""
    return [l for l in read_lines(path) if not l.startswith("#")]


def stable_lines(path):
    """Everything except the run-dependent timestamp/wall-time comments."""
    return [
        l
        for l in read_lines(path)
        if not l.startswith("# generated_at") and not l.startswith("# wall_time_s")
    ]


def rows_of(path):
    body = body_of(path)
    columns = body[0].split(",")
    return columns, [dict(zip(columns, line.split(","))) for line in body[1:]]


def header_value(path, key):
    prefix = f"# {key} = "
    for line in read_lines(path):
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_swap_noiseless(tmp_path):
    code, out = run(tmp_path, ["trace"])  # swap is the default gate
    assert code == 0
    columns, rows = rows_of(out)
    assert columns == ["t", "f_q1_zero", "f_q1_one", "f_q1_plus", "j_channel_1"]
    assert len(rows) == 1001
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(1.0)
    # |00> is an exact eigenstate of the exchange drive
    assert min(float(r["f_q1_zero"]) for r in rows) > 1.0 - 1e-9
    for column in ("f_q1_zero", "f_q1_one", "f_q1_plus"):
        assert float(rows[-1][column]) > 0.999999


def test_trace_cnot_has_two_drive_columns(tmp_path):
    code, out = run(tmp_path, ["trace", "--gate", "cnot"])
    assert code == 0
    columns, rows = rows_of(out)
    assert columns[-2:] == ["j_channel_1", "j_channel_2"]
    for column in ("f_q1_zero", "f_q1_one", "f_q1_plus"):
        assert float(rows[-1][column]) > 0.999999
    peak_local = max(float(r["j_channel_1"]) for r in rows)
    peak_coupling = max(float(r["j_channel_2"]) for r in rows)
    assert peak_local > peak_coupling


def test_trace_with_noise_runs_the_reference_integrator(tmp_path):
    code, out = run(
        tmp_path, ["trace", "--noise", "dephasing", "--gamma", "0.05"]
    )
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 1001
    final = float(rows[-1]["f_q1_plus"])
    assert 0.9 < final < 0.999999  # dephasing must cost something


@pytest.mark.parametrize("gate", ["swap", "cnot", "cnot_rotated"])
def test_trace_drive_columns_are_the_rescaled_gaussian(tmp_path, monkeypatch, gate):
    # the drive columns are each channel's rescaled Gaussian at the step
    # times, untruncated at the slot end, bit for bit in the rows written
    times, written = [], []
    step_maps, write_csv = cli.gate_step_maps, cli.write_csv

    def recorded_step_maps(*args, **kwargs):
        for ts, maps in step_maps(*args, **kwargs):
            times.append(ts)
            yield ts, maps

    monkeypatch.setattr(cli, "gate_step_maps", recorded_step_maps)
    monkeypatch.setattr(cli, "write_csv", lambda *args: written.append(args[3]) or write_csv(*args))
    code, out = run(tmp_path, ["trace", "--gate", gate])
    assert code == 0
    ts = np.concatenate(times)
    params = cli.GATE_BUILDERS[gate](1, 2).params
    want = gaussian(ts, *rescale_channel_params(params, 0, 1))
    assert want.shape == (len(params), 1001) and want[:, -1].min() > 0.0
    (rows,) = written
    assert np.array_equal(np.array(rows)[:, 0], ts)
    assert np.array_equal(np.array(rows)[:, -len(params):], want.T)
    _, cells = rows_of(out)
    for i, drive in enumerate(want, start=1):
        assert [r[f"j_channel_{i}"] for r in cells] == [f"{v:.12g}" for v in drive]


# ---------------------------------------------------------------------------
# duration sweep: determinism and worker independence
# ---------------------------------------------------------------------------

SWEEP_ARGS = [
    "duration-sweep",
    "--gate",
    "swap",
    "--noise",
    "dephasing",
    "--gamma",
    "0.01",
    "--alpha",
    "1,2",
]


def test_duration_sweep_layout(tmp_path):
    code, out = run(tmp_path, SWEEP_ARGS)
    assert code == 0
    columns, rows = rows_of(out)
    assert columns == ["duration", "gamma", "gate", "fidelity", "dt"]
    assert [r["duration"] for r in rows] == ["1", "2"]
    assert all(r["gate"] == "swap" for r in rows)
    # auto dt is slot/1000, and the slot stretches with alpha
    assert float(rows[0]["dt"]) == pytest.approx(1e-3)
    assert float(rows[1]["dt"]) == pytest.approx(2e-3)
    assert all(0.0 < float(r["fidelity"]) < 1.0 for r in rows)


def test_repeated_runs_are_byte_identical_outside_timestamps(tmp_path):
    _, first = run(tmp_path, SWEEP_ARGS, name="a.csv")
    _, second = run(tmp_path, SWEEP_ARGS, name="b.csv")
    a, b = stable_lines(first), stable_lines(second)
    # the out path itself appears in the header; ignore that single line
    a = [l for l in a if not l.startswith("# out")]
    b = [l for l in b if not l.startswith("# out")]
    assert a == b


def test_worker_count_does_not_change_the_rows(tmp_path):
    _, serial = run(tmp_path, SWEEP_ARGS + ["--workers", "1"], name="w1.csv")
    _, pooled = run(tmp_path, SWEEP_ARGS + ["--workers", "3"], name="w3.csv")
    assert body_of(serial) == body_of(pooled)


def test_default_duration_sweep_body_ignores_workers(tmp_path, monkeypatch):
    # each (gate, gamma) row of 30 durations builds as one series, on a
    # cold cache both times
    bodies = []
    for workers in ("1", "2"):
        monkeypatch.setattr(dynamics, "_PAIR_PROP_CACHE", {})
        code, out = run(tmp_path, ["duration-sweep", "--workers", workers], f"w{workers}.csv")
        assert code == 0
        lines = out.read_bytes().splitlines(keepends=True)
        bodies.append(b"".join(line for line in lines if not line.startswith(b"#")))
    assert len(bodies[0].splitlines()) == 181
    assert bodies[0] == bodies[1]


def test_csv_is_newline_terminated_without_carriage_returns(tmp_path):
    _, out = run(tmp_path, SWEEP_ARGS)
    text = out.read_text()
    assert text.endswith("\n")
    assert "\r" not in text
    lines = read_lines(out)
    assert lines[0].startswith("# generated_at = ")
    assert lines[1].startswith("# wall_time_s = ")


# ---------------------------------------------------------------------------
# chain sweep
# ---------------------------------------------------------------------------

def test_chain_sweep_small_line(tmp_path):
    code, out = run(
        tmp_path,
        ["chain-sweep", "--topology", "1d", "--n", "3", "--gamma", "0.01", "--noise", "dephasing"],
    )
    assert code == 0
    columns, rows = rows_of(out)
    assert columns == ["n", "topology", "order", "gamma", "noise", "fidelity", "dt"]
    assert [r["order"] for r in rows] == ["cnot_first", "cnot_last"]
    assert all(r["topology"] == "line_1d" and r["noise"] == "dephasing" for r in rows)
    f_first, f_last = (float(r["fidelity"]) for r in rows)
    assert 0.9 < f_first < 1.0 and 0.9 < f_last < 1.0
    assert f_first != f_last  # order matters once noise is on


def test_chain_sweep_noiseless_is_nearly_perfect(tmp_path):
    code, out = run(tmp_path, ["chain-sweep", "--n", "3,4", "--noise", "none"])
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 4  # two sizes x two orders, single gamma=0
    assert all(float(r["fidelity"]) > 1.0 - 1e-6 for r in rows)
    assert all(r["gamma"] == "0" and r["noise"] == "none" for r in rows)


def test_chain_sweep_determinism(tmp_path):
    argv = ["chain-sweep", "--n", "3", "--gamma", "0.05", "--noise", "amp"]
    _, first = run(tmp_path, argv, name="c1.csv")
    _, second = run(tmp_path, argv, name="c2.csv")
    assert body_of(first) == body_of(second)


# ---------------------------------------------------------------------------
# state map
# ---------------------------------------------------------------------------

def test_state_map_tiny_grid(tmp_path):
    code, out = run(
        tmp_path, ["state-map", "--grid", "8x8", "--gamma", "0.1", "--noise", "amp"]
    )
    assert code == 0
    columns, rows = rows_of(out)
    assert columns == ["theta", "phi", "f_cnot_first", "f_cnot_last", "delta_f"]
    assert len(rows) == 64
    # theta-major ordering: the first 8 rows share theta = 0
    assert all(float(r["theta"]) == 0.0 for r in rows[:8])
    for r in rows:
        delta = float(r["f_cnot_first"]) - float(r["f_cnot_last"])
        assert float(r["delta_f"]) == pytest.approx(delta, abs=1e-9)

    contour = tmp_path / "out.contour.csv"
    assert contour.exists()
    ccolumns, crows = rows_of(contour)
    assert ccolumns == ["phi", "theta", "fit_theta"]
    assert len(crows) >= 8  # one crossing per phi column at minimum
    fit_a = float(header_value(contour, "fit_a"))
    fit_b = float(header_value(contour, "fit_b"))
    assert not math.isnan(fit_a) and not math.isnan(fit_b)
    assert 0.0 < fit_b < np.pi


def test_contour_path_naming():
    assert cli.output_path("maps/run.csv", ".contour") == "maps/run.contour.csv"
    assert cli.output_path("plain", ".contour") == "plain.contour.csv"
    assert cli.output_path("plain", "") == "plain"


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_swap_succeeds(tmp_path):
    code, out = run(tmp_path, ["calibrate", "--gate", "swap", "--seed", "0"])
    assert code == 0
    columns, rows = rows_of(out)
    assert columns == [
        "gate",
        "amplitude_1",
        "width_1",
        "area_1",
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
    (row,) = rows
    assert row["gate"] == "swap" and row["success"] == "true"
    assert float(row["objective"]) < 1e-5
    assert int(row["n_evaluations"]) > 0


def test_calibrate_cnot_reports_two_channels(tmp_path):
    code, out = run(tmp_path, ["calibrate", "--gate", "cnot"])
    assert code == 0
    columns, rows = rows_of(out)
    assert "amplitude_2" in columns and "area_2" in columns
    assert rows[0]["success"] == "true"


def test_calibrate_infeasible_bounds_exits_3_with_record(tmp_path, capsys):
    config = tmp_path / "narrow.ini"
    config.write_text("[calibration]\namplitude_max = 0.01\nwidth_max = 0.0002\n")
    code, out = run(
        tmp_path, ["calibrate", "--gate", "swap", "--config", str(config)]
    )
    assert code == 3
    assert "failed" in capsys.readouterr().err
    _, rows = rows_of(out)
    (row,) = rows
    assert row["success"] == "false"
    assert float(row["objective"]) >= 1e-5
    assert float(row["amplitude_1"]) <= 0.01 + 1e-12


# ---------------------------------------------------------------------------
# configuration file handling and precedence
# ---------------------------------------------------------------------------

def test_flags_override_config_file(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[noise]\nkind = dephasing\ngamma = 0.02\n"
        "[topology]\nkind = 1d\nn = 3\norder = cnot-first\n"
    )
    code, out = run(
        tmp_path,
        ["chain-sweep", "--config", str(config), "--gamma", "0.05"],
    )
    assert code == 0
    assert header_value(out, "gamma") == "0.05"
    assert header_value(out, "order") == "cnot_first"
    _, rows = rows_of(out)
    assert len(rows) == 1
    assert rows[0]["gamma"] == "0.05"


def test_config_file_alone_drives_the_run(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[gate]\nkind = cnot\n[integrator]\ndt = 0.002\n[run]\nseed = 7\n"
    )
    code, out = run(tmp_path, ["trace", "--config", str(config)])
    assert code == 0
    assert header_value(out, "gate") == "cnot"
    assert header_value(out, "integrator_dt") == "0.002"
    assert header_value(out, "seed") == "7"
    _, rows = rows_of(out)
    assert len(rows) == 501  # 1/0.002 steps plus the initial sample


def test_header_records_resolved_settings(tmp_path):
    _, out = run(tmp_path, ["trace"])
    assert header_value(out, "command") == "trace"
    assert header_value(out, "integrator_dt") == "auto"
    assert header_value(out, "integrator_method") is None
    assert header_value(out, "map_method") is None
    assert header_value(out, "force_large_n") is None


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["chain-sweep", "--gamma", "-0.5"],
        ["chain-sweep", "--noise", "none", "--gamma", "0.5"],
        ["chain-sweep", "--workers", "0"],
        ["trace", "--dt", "0.3"],  # does not divide the slot
        ["trace", "--gate", "both"],
        ["duration-sweep", "--alpha", "0,1"],
        ["state-map", "--n", "6"],
        ["state-map", "--order", "cnot-first"],
        ["state-map", "--gamma", "0.1,0.2"],
        ["state-map", "--grid", "8x"],
        ["duration-sweep", "--alpha", "1", "--gamma", "zero"],
        ["trace", "--noise", "dephasing", "--gamma", "0.1,0.5"],
        ["duration-sweep", "--dt", "0.001"],  # does not divide alpha = 1.172
        ["chain-sweep", "--topology", "2d", "--n", "5"],
        ["chain-sweep", "--n", "1"],
        ["calibrate", "--seed", "-1"],
        ["chain-sweep", "--workers", "abc"],
        ["trace", "--gate", "hadamard"],
        ["chain-sweep", "--noise", "dephasing", "--gamma", "inf"],
        ["duration-sweep", "--alpha", "1,inf"],
        ["chain-sweep", "--force-large-n"],  # removed: any length runs
        ["duration-sweep", "--alpha", "1e200"],  # the pulse width overflows
        ["duration-sweep", "--alpha", "1e-300"],  # the pulse width underflows
        ["trace", "--dt", "1e-320"],  # the step count overflows
        ["trace", "--dt", "1e-300"],  # a finite step count past the ceiling
        ["duration-sweep", "--dt", "1e-9"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_settings_exit_2(tmp_path, argv, capsys):
    code, _ = run(tmp_path, argv)
    assert code == 2
    assert capsys.readouterr().err != ""


def test_bad_dt_is_refused_before_any_case_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "gate_fidelity", lambda *args: calls.append(args) or 1.0)
    code, out = run(tmp_path, ["duration-sweep", "--dt", "0.001"])
    assert code == 2
    assert calls == [] and not out.exists()
    assert "does not divide the slot duration" in capsys.readouterr().err


def test_unrepresentable_duration_names_the_same_pulse_error(tmp_path, monkeypatch, capsys):
    # the width underflows at 1e-300 and overflows at 1e300: the config-time
    # rescale check refuses both alike, before the sweep runs
    monkeypatch.setitem(cli.RUNNERS, "duration-sweep", lambda s: pytest.fail("ran"))
    for alpha in ("1e-300", "1e300"):
        code, out = run(tmp_path, ["duration-sweep", "--alpha", alpha])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "config error: pulse width must be positive and finite\n"


LINE_ARGV = ["chain-sweep", "--topology", "1d", "--n", "3", "--noise", "none"]


@pytest.mark.parametrize(
    "argv, out, made",
    [
        (LINE_ARGV, "missing/x.csv", None),
        (LINE_ARGV, "folder", "folder"),
        (["state-map"], "missing/map.csv", None),
        (["state-map"], "map.csv", "map.contour.csv"),  # the contour sibling
    ],
)
def test_unwritable_out_is_refused_before_any_case_runs(tmp_path, monkeypatch, capsys,
                                                       argv, out, made):
    if made:
        (tmp_path / made).mkdir()
    monkeypatch.setitem(cli.RUNNERS, argv[0], lambda s: pytest.fail("ran"))
    code = cli.main(argv + ["--out", str(tmp_path / out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert [p.name for p in tmp_path.iterdir()] == ([made] if made else [])


def test_a_failed_write_exits_2(tmp_path, monkeypatch, capsys):
    # the directory is gone by the time the runner returns
    folder = tmp_path / "gone"
    folder.mkdir()

    def runner(s):
        folder.rmdir()
        return [("", [], ["n"], [(3,)])], cli.EXIT_OK

    monkeypatch.setitem(cli.RUNNERS, "chain-sweep", runner)
    code = cli.main(["chain-sweep", "--out", str(folder / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: cannot write ")
    assert list(tmp_path.iterdir()) == []


def test_library_value_error_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    monkeypatch.setattr(cli, "transport_fidelity", broken)
    code, _ = run(tmp_path, ["chain-sweep", "--noise", "none", "--n", "3"])
    assert code == 5
    assert capsys.readouterr().err == "internal error: broken invariant\n"


def test_experiment_kind_must_match_the_subcommand(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[experiment]\nkind = chain-sweep\n")
    code, out = run(tmp_path, ["trace", "--config", str(config)])
    assert code == 2 and not out.exists()
    assert "does not match the subcommand 'trace'" in capsys.readouterr().err

    config.write_text("[experiment]\nkind = trace\n")
    code, out = run(tmp_path, ["trace", "--config", str(config)])
    assert code == 0
    assert header_value(out, "command") == "trace"


def test_malformed_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "flat.ini"
    config.write_text("gamma = 0.1\n")  # no section header
    code, _ = run(tmp_path, ["trace", "--config", str(config)])
    assert code == 2
    assert "config error: cannot read config file" in capsys.readouterr().err


def test_unknown_config_entries_exit_2(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[plotting]\nstyle = dark\n")
    code, _ = run(tmp_path, ["trace", "--config", str(bad_section)])
    assert code == 2

    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[noise]\nkind = dephasing\nrate = 0.1\n")
    code, _ = run(tmp_path, ["trace", "--config", str(bad_key)])
    assert code == 2

    bad_kind = tmp_path / "c.ini"
    bad_kind.write_text("[experiment]\nkind = teleport\n")
    code, _ = run(tmp_path, ["trace", "--config", str(bad_kind)])
    assert code == 2


@pytest.mark.parametrize(
    "text, key",
    [
        ("[integrator]\nmethod = rk4\n", "method"),
        ("[map]\nmethod = direct\n", "method"),
        ("[run]\nforce_large_n = true\n", "force_large_n"),
    ],
    ids=["integrator-method", "map-method", "force-large-n"],
)
def test_removed_method_keys_are_unknown_config_entries(tmp_path, text, key, capsys):
    config = tmp_path / "old.ini"
    config.write_text(text)
    code, _ = run(tmp_path, ["state-map", "--grid", "4x4", "--config", str(config)])
    assert code == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_large_noisy_chain_runs_without_an_override(tmp_path):
    code, out = run(
        tmp_path,
        ["chain-sweep", "--topology", "1d", "--n", "16", "--gamma", "0.1", "--noise", "dephasing"],
    )
    assert code == 0
    _, rows = rows_of(out)
    assert [r["n"] for r in rows] == ["16", "16"]
    assert all(0.0 < float(r["fidelity"]) < 1.0 for r in rows)


def test_long_noisy_chains_contract_within_1024_entries(tmp_path, monkeypatch):
    # the line's frontier stays at 4 * 16**2 entries at any length
    monkeypatch.setattr(circuits, "FRONTIER_MAX_ENTRIES", 1024)
    argv = ["chain-sweep", "--topology", "1d", "--noise", "amp", "--n", "200"]
    code, out = run(tmp_path, argv)
    assert code == 0
    _, rows = rows_of(out)
    assert [(r["n"], r["order"]) for r in rows] == [("200", "cnot_first"), ("200", "cnot_last")]
    assert all(0.0 < float(r["fidelity"]) < 1.0 for r in rows)


def test_noisy_ladder_size_guard_reads_the_live_width(tmp_path, monkeypatch):
    # the size guard is the frontier limit, not the number of sites: the
    # ladder's frontier stays at 4 * 16**2 entries, whatever its length
    monkeypatch.setattr(circuits, "FRONTIER_MAX_ENTRIES", 1024)
    code, out = run(
        tmp_path, ["chain-sweep", "--topology", "2d", "--noise", "amp", "--n", "100"]
    )
    assert code == 0
    _, rows = rows_of(out)
    assert [(r["n"], r["order"]) for r in rows] == [("100", "cnot_first"), ("100", "cnot_last")]
    assert all(0.0 < float(r["fidelity"]) < 1.0 for r in rows)


def test_lost_normalisation_aborts_with_exit_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "slot_unitary", lambda *args: 2.0 * np.eye(4))
    code, _ = run(tmp_path, ["duration-sweep", "--noise", "none", "--alpha", "1"])
    assert code == 4
    assert "integrator abort: unitary evolution lost normalisation" in capsys.readouterr().err
    # the trace stream checks each chunk of step unitaries before it is read
    monkeypatch.setattr(
        dynamics, "_eigen_unitary", lambda kind, areas: 2.0 * np.eye(4) * np.ones(areas.shape[1:] + (1, 1))
    )
    code, out = run(tmp_path, ["trace", "--noise", "none"])
    assert code == 4 and not out.exists()
    assert "integrator abort: unitary evolution lost normalisation" in capsys.readouterr().err


def test_generator_that_breaks_hermiticity_exits_4(tmp_path, monkeypatch, capsys):
    dissipator = dynamics._dissipator_superop
    monkeypatch.setattr(dynamics, "_dissipator_superop", lambda l4: 1j * dissipator(l4))
    code, out = run(tmp_path, ["duration-sweep", "--gate", "swap", "--noise", "dephasing"])
    assert code == 4 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("integrator abort: the swap pair generator does not preserve Hermiticity")


def test_broken_transport_gate_aborts_on_the_final_trace(tmp_path, monkeypatch, capsys):
    # a noisy pair map that is not trace-preserving, past the build's own check
    monkeypatch.setattr(dynamics, "_pair_rk4", lambda *args: [2.0 * np.eye(16)] * len(args[3]))
    code, _ = run(tmp_path, ["chain-sweep", "--noise", "dephasing", "--n", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("integrator abort: trace drifted by")
    assert "in the final state" in err
    # a broken closed-form unitary aborts when its map is built
    monkeypatch.setattr(dynamics, "slot_unitary", lambda *args: 2.0 * np.eye(4))
    code, _ = run(tmp_path, ["chain-sweep", "--noise", "none", "--n", "3"])
    assert code == 4
    assert "integrator abort: unitary evolution lost normalisation" in capsys.readouterr().err


def test_default_noisy_ladder_builds_two_maps(tmp_path, monkeypatch):
    builds = []
    build = dynamics._pair_rk4
    monkeypatch.setattr(dynamics, "_pair_rk4", lambda *args: builds.append(args[0]) or build(*args))
    code, out = run(tmp_path, ["chain-sweep", "--topology", "2d", "--noise", "amp"])
    assert code == 0 and len(rows_of(out)[1]) == 10
    assert sorted(builds) == ["cnot", "swap"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the build stops before numpy overflows
@pytest.mark.parametrize(
    "argv",
    [
        ["chain-sweep", "--noise", "dephasing", "--gamma", "5000", "--n", "3"],
        ["trace", "--gate", "cnot", "--noise", "amp", "--gamma", "5000"],
        ["trace", "--gate", "swap", "--noise", "dephasing", "--gamma", "1e6"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_overflowing_propagator_aborts_with_exit_4(tmp_path, argv, capsys):
    code, out = run(tmp_path, argv)
    assert code == 4 and not out.exists()
    assert capsys.readouterr().err.startswith("integrator abort: the ")


@pytest.mark.parametrize("gamma", ["1e200", "1e308"])
@pytest.mark.parametrize(
    "argv",
    [
        ["duration-sweep", "--gate", "swap", "--alpha", "1", "--noise", "dephasing"],
        ["trace", "--gate", "cnot", "--noise", "dephasing"],
    ],
    ids=lambda argv: argv[0],
)
def test_rate_near_the_float_limit_exits_4_as_unbounded(tmp_path, argv, gamma, capsys):
    # no numpy warning either: the suite turns RuntimeWarnings into errors
    code, out = run(tmp_path, argv + ["--gamma", gamma])
    assert code == 4 and not out.exists()
    assert "pair propagator is not bounded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["duration-sweep", "--gate", "cnot", "--noise", "dephasing", "--gamma", "0.1",
         "--alpha", "1", "--dt", "0.25"],
        ["duration-sweep", "--gate", "swap", "--alpha", "1,2", "--dt", "0.5"],
        ["trace", "--gate", "cnot", "--noise", "dephasing", "--gamma", "0.1", "--dt", "0.25"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unstable_step_grid_of_a_single_gate_exits_4(tmp_path, argv, capsys):
    # these grids keep every map's trace row exact, but grow entries of 4.5
    # to 51, which no CPTP Pauli-transfer map has; read, they would give
    # fidelities far outside [0, 1]
    code, out = run(tmp_path, argv)
    assert code == 4 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("integrator abort: ") and "above 1, which no CPTP map has" in err


@pytest.mark.parametrize("gamma", ["1e200", "1e308"])
def test_amplitude_damping_near_the_float_limit_exits_4_as_unbounded(tmp_path, gamma, capsys):
    # the letters' roundoff at 1e200 is far below their size: not a
    # Hermiticity defect, so the build stops on its bound
    code, out = run(tmp_path, ["trace", "--gate", "cnot", "--noise", "amp", "--gamma", gamma])
    assert code == 4 and not out.exists()
    assert "integrator abort: the cnot pair propagator is not bounded" in capsys.readouterr().err


def test_the_cli_loads_no_scipy(tmp_path):
    # calibration starts come from an in-house sampler and bit stream, so
    # neither the import nor a calibrate or noisy sweep run pulls in scipy or
    # numpy.random; the INI reader loads only when used, and every run is
    # serial, so no --workers count starts a thread pool
    code = """
import sys
import spinchain.cli as cli

def loaded(*names):
    return sorted(k for k in sys.modules for n in names if k == n or k.startswith(n + "."))

assert not loaded("concurrent.futures", "configparser"), loaded("concurrent.futures", "configparser")
argvs = [
    ["calibrate", "--gate", "cnot"],
    ["duration-sweep", "--gate", "swap", "--alpha", "1", "--noise", "dephasing"],
    ["chain-sweep", "--n", "3,4", "--workers", "3"],
]
for i, argv in enumerate(argvs):
    assert cli.main(argv + ["--out", f"{sys.argv[1]}/{i}.csv"]) == 0
    assert not loaded("numpy.random"), (argv, loaded("numpy.random"))
    assert not loaded("concurrent.futures"), (argv, loaded("concurrent.futures"))
print(loaded("scipy"))
"""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_noisy_ladder_body_ignores_workers_and_cache_state(tmp_path, monkeypatch):
    argv = ["chain-sweep", "--topology", "2d", "--noise", "amp", "--n", "4,6,8"]
    bodies = []
    for workers in ("1", "2"):
        # a cold propagator cache, then the same run on the warm one
        monkeypatch.setattr(dynamics, "_PAIR_PROP_CACHE", {})
        for state in ("cold", "warm"):
            code, out = run(tmp_path, argv + ["--workers", workers], f"{workers}-{state}.csv")
            assert code == 0
            bodies.append(body_of(out))
    assert len(bodies[0]) == 7
    assert all(body == bodies[0] for body in bodies)


def test_missing_subcommand_and_unknown_flag_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["trace", "--frequency", "3"]) == 2
    assert cli.main(["transport", "--gate", "swap"]) == 2
    capsys.readouterr()


def test_flags_may_come_before_the_subcommand():
    argv = ["--gate", "cnot", "calibrate", "--seed", "3", "--config", "a.ini"]
    before = vars(cli._build_parser().parse_args(argv))
    after = vars(cli._build_parser().parse_args(["calibrate"] + argv[:2] + argv[3:]))
    assert before == after
    assert (before["command"], before["gate"], before["seed"]) == ("calibrate", "cnot", "3")


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "calibrate" in capsys.readouterr().out


def test_unstable_step_aborts_with_exit_4(tmp_path, capsys):
    code, _ = run(
        tmp_path,
        [
            "chain-sweep",
            "--topology",
            "1d",
            "--n",
            "8",
            "--gamma",
            "0.1",
            "--noise",
            "dephasing",
            "--order",
            "cnot-first",
            "--dt",
            "0.25",
        ],
    )
    assert code == 4
    assert "integrator abort: trace drifted" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the settings table: flag/INI parity and the documented schema
# ---------------------------------------------------------------------------

def resolved_header(tmp_path, argv, ini=""):
    """Header pairs of the settings ``argv`` resolves to, without running."""
    if ini:
        config = tmp_path / "parity.ini"
        config.write_text(ini)
        argv = argv + ["--config", str(config)]
    args = cli._build_parser().parse_args(argv)
    return dict(cli.settings_header(cli.resolve_settings(args)))


FLAGGED = [row for row in cli.SETTINGS if row.flag]

# every accepted spelling of each named setting, and the header value it means
SPELLINGS = {
    "gate": {"swap": "swap", "cnot": "cnot", "cnot_rotated": "cnot_rotated", "both": "both"},
    "noise_kind": {
        "none": "none",
        "dephasing": "dephasing",
        "amp": "amplitude_damping",
        "amplitude_damping": "amplitude_damping",
    },
    "topology_kind": {"1d": "line_1d", "line_1d": "line_1d", "2d": "square_2d", "square_2d": "square_2d"},
    "orders": {
        "cnot-first": "cnot_first",
        "cnot_first": "cnot_first",
        "cnot-last": "cnot_last",
        "cnot_last": "cnot_last",
        "both": "cnot_first,cnot_last",
    },
}

# row name: (INI text, flag text, header value of the flag)
OVERRIDES = {
    "gate": ("cnot", "swap", "swap"),
    "noise_kind": ("dephasing", "amp", "amplitude_damping"),
    "gammas": ("0.02", "0.05", "0.05"),
    "topology_kind": ("2d", "1d", "line_1d"),
    "ns": ("4", "6,8", "6,8"),
    "orders": ("cnot-first", "both", "cnot_first,cnot_last"),
    "alphas": ("1,2", "5", "5"),
    "grid": ("8x8", "4x6", "4x6"),
    "dt": ("0.01", "0.001", "0.001"),
    "workers": ("3", "2", "2"),
    "seed": ("7", "3", "3"),
    "out": ("a.csv", "b.csv", "b.csv"),
}


@pytest.mark.parametrize(
    "row, spelling",
    [
        (row, spelling)
        for row in FLAGGED
        if row.name in SPELLINGS
        for spelling in SPELLINGS[row.name]
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_flag_and_ini_accept_the_same_spellings(tmp_path, row, spelling):
    from_flag = resolved_header(tmp_path, ["chain-sweep", row.flag, spelling])
    ini = f"[{row.section}]\n{row.key} = {spelling}\n"
    from_ini = resolved_header(tmp_path, ["chain-sweep"], ini)
    assert from_flag[row.header] == from_ini[row.header] == SPELLINGS[row.name][spelling]


def test_every_flag_has_an_override_case():
    assert set(OVERRIDES) == {row.name for row in FLAGGED}


@pytest.mark.parametrize("row", FLAGGED, ids=lambda row: row.name)
def test_every_flag_overrides_its_ini_key(tmp_path, row):
    ini_text, flag_text, expected = OVERRIDES[row.name]
    ini = f"[{row.section}]\n{row.key} = {ini_text}\n"
    from_ini = resolved_header(tmp_path, ["chain-sweep"], ini)
    from_both = resolved_header(tmp_path, ["chain-sweep", row.flag, flag_text], ini)
    assert from_ini[row.header] != expected
    assert from_both[row.header] == expected


def test_readme_schema_matches_the_settings_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    schema = configparser.ConfigParser(inline_comment_prefixes=("#",))
    schema.read_string(block)
    documented = {(section, key) for section in schema.sections() for key in schema[section]}
    table = {(row.section, row.key) for row in cli.SETTINGS}
    assert documented == table | {("experiment", "kind")}


def _fmt_cell_by_isinstance(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def test_cell_formats_by_type_equal_the_isinstance_chain():
    class Flag(int):
        pass

    cells = [
        0.1, -0.0, 1e-300, 2.0**60, math.pi, math.inf, -math.inf, math.nan, 1 / 3,
        np.float64(0.999999999999), np.float64(-1e-17), np.float64(-0.0), np.float64(math.nan),
        np.float64(-math.inf), np.float64(123456789012.5), np.float32(0.1), np.float16(2.5),
        0, -7, 10**20, True, False, np.int64(-3), np.int32(9), np.uint8(255),
        np.bool_(True), Flag(4), "swap", "", None, (1, 2),
    ]
    for cell in cells:
        assert cli._fmt_cell(cell) == _fmt_cell_by_isinstance(cell), repr(cell)


def test_row_templates_equal_the_cell_formatter(tmp_path):
    cells = [
        0.1, -0.0, 1e-300, 5e-324, 2.0**60, 1e22, 123456789012.5, math.pi, math.inf, -math.inf,
        math.nan, np.float64(1 / 3), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
        np.float32(0.1), 0, -7, 10**20, np.int64(-3), True, False, "swap", "", "50%", None,
    ]
    rng = np.random.default_rng(5)
    rows = [tuple(cells), tuple(reversed(cells))]
    rows += [tuple(rng.permutation(np.array(cells, dtype=object))) for _ in range(20)]
    rows += [tuple(rng.standard_normal(5) * 10.0 ** rng.integers(-30, 30, 5)) for _ in range(50)]
    rows += [list(map(float, rng.standard_normal(4))), ()]
    out = tmp_path / "rows.csv"
    cli.write_csv(str(out), [], ["c"], rows, 0.0)
    assert body_of(out)[1:] == [",".join(map(cli._fmt_cell, row)) for row in rows]
