import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_density, spec_for
from gaqb import cli, integrator
from gaqb.cli import (
    _CHOICES,
    _COMMANDS,
    CHARGE_HEADER,
    PARAMS_HEADER,
    SWEEP_METRICS,
    ConfigError,
    RunConfig,
    build_parser,
    main,
    merge_config,
    read_config_file,
    run_sweep,
    validate_config,
    write_csv,
    _parabolic_peak,
    _sweep_cell,
)
from gaqb.geometry import NESTED

SWEEP_ARGS = [
    "sweep", "--topology", "braided", "--theta-min", "0", "--theta-max",
    "3.141592653589793", "--theta-steps", "5", "--tmax", "10", "--dt", "0.02",
    "--stride", "20",
]


# --- config file ------------------------------------------------------------

def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# charging run\n"
        "topology = separated\n"
        "theta = 1.5707963\n"
        "gamma = 0.05   # overridden below by a flag in some tests\n"
        "\n"
        "theta_steps = 11\n",
        encoding="utf-8",
    )
    cfg, _ = merge_config(str(cfg_file), {})
    assert cfg.topology == "separated"
    assert cfg.theta == pytest.approx(1.5707963)
    assert cfg.gamma == 0.05
    assert cfg.theta_steps == 11
    assert cfg.dt == RunConfig.dt  # untouched default


def test_config_unknown_key_names_key_and_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("topology = braided\nthetа = 0.3\n", encoding="utf-8")  # cyrillic 'а'
    with pytest.raises(ConfigError) as err:
        merge_config(str(cfg_file), {})
    assert "2" in str(err.value) and "thet" in str(err.value)


def test_config_bad_number_and_missing_equals(tmp_path):
    f = tmp_path / "a.cfg"
    f.write_text("gamma = lots\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="gamma"):
        merge_config(str(f), {})
    f.write_text("gamma 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key = value"):
        merge_config(str(f), {})
    with pytest.raises(ConfigError):
        merge_config(str(tmp_path / "absent.cfg"), {})


def test_config_file_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_bytes(b"\xff\xfe bad\n")
    assert main(["charge", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err.startswith(f"gaqb: error: cannot read config file {cfg_file}: ")


def test_config_file_byte_order_mark_is_skipped(tmp_path, capsys):
    # some editors save UTF-8 with a leading byte-order mark; the first key
    # must not absorb it
    cfg_file = tmp_path / "bom.cfg"
    cfg_file.write_bytes(b"\xef\xbb\xbftopology = nested\n")
    assert main(["params", "--theta-steps", "3", "--config", str(cfg_file)]) == 0
    from_file = capsys.readouterr().out
    assert main(["params", "--theta-steps", "3", "--topology", "nested"]) == 0
    assert from_file == capsys.readouterr().out


def sample_value(field):
    """A value for field that its default does not hold, as flag text."""
    if field in _CHOICES:
        return _CHOICES[field][-1]
    return {int: "7", float: "0.375", str: "E,sigma"}.get(type(getattr(RunConfig(), field)), "x.csv")


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_each_flag_sets_its_field_as_the_config_key_does(command, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    for field in (*_COMMANDS[command][1], "out", "format"):
        raw = sample_value(field)
        flag = "--stride" if field == "sample_stride" else "--" + field.replace("_", "-")
        ns = vars(build_parser().parse_args([command, flag, raw]))
        cfg_file.write_text(f"{field} = {raw}\n", encoding="utf-8")
        assert read_config_file(str(cfg_file)) == {field: ns[field]}, flag  # dest is the field
        default = getattr(RunConfig(), field)
        assert type(ns[field]) is (str if default is None else type(default)), flag
        assert ns[field] != default, flag


def test_choices_are_the_values_flags_and_config_files_accept():
    candidates = {value for allowed in _CHOICES.values() for value in allowed} | {"bogus"}
    for name, allowed in _CHOICES.items():
        command = next(c for c, (_, fields) in _COMMANDS.items() if name in fields or name == "format")
        flag = "--" + name
        for value in sorted(candidates):
            cfg = replace(RunConfig(), **{name: value})
            if value in allowed:
                assert vars(build_parser().parse_args([command, flag, value]))[name] == value
                assert validate_config(cfg) == cfg
                continue
            with pytest.raises(ConfigError, match=f"argument {flag}: invalid choice: '{value}'"):
                build_parser().parse_args([command, flag, value])
            with pytest.raises(ConfigError) as err:
                validate_config(cfg)
            assert str(err.value) == f"{name} must be one of {', '.join(allowed)}, got {value!r}"


def test_flag_overrides_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("gamma = 0.1\ntopology = nested\n", encoding="utf-8")
    cfg, explicit = merge_config(str(cfg_file), {"gamma": 0.05, "theta": None})
    assert cfg.gamma == 0.05  # flag wins
    assert cfg.topology == "nested"  # file wins over default
    assert "gamma" in explicit and "theta" not in explicit


def test_validation_errors():
    with pytest.raises(ConfigError):
        merge_config(None, {"topology": "moebius"})
    with pytest.raises(ConfigError):
        merge_config(None, {"format": "xml"})
    with pytest.raises(ConfigError):
        merge_config(None, {"theta_steps": 1})
    with pytest.raises(ConfigError):
        merge_config(None, {"dt": -0.1})
    with pytest.raises(ConfigError):
        merge_config(None, {"metrics": "E,entropy"})
    with pytest.raises(ConfigError):
        merge_config(None, {"metrics": "E, E"})
    with pytest.raises(ConfigError, match="theta_min must be below theta_max"):
        merge_config(None, {"theta_min": 1.0, "theta_max": 0.0})
    # rejected before the theta grid is allocated
    with pytest.raises(ConfigError, match="theta_steps"):
        merge_config(None, {"theta_steps": 10**13})
    with pytest.raises(ConfigError, match="gamma must be >= 0"):
        merge_config(None, {"gamma": -1.0})
    with pytest.raises(ConfigError, match="sample_stride must be >= 1"):
        merge_config(None, {"sample_stride": 0})
    # tau = tau_scaled / gamma_max must neither overflow to inf nor underflow to 0
    for overrides in ({"gamma_max": 0.0}, {"tau_scaled": 0.0},
                      {"tau_scaled": 1e308, "gamma_max": 1e-300},
                      {"tau_scaled": 1e-300, "gamma_max": 1e300}):
        with pytest.raises(ConfigError, match="gamma_max and tau_scaled must be positive"):
            merge_config(None, overrides)


# --- commands end to end -----------------------------------------------------

def test_params_command_golden_rows(tmp_path, capsys):
    out = tmp_path / "params.csv"
    rc = main([
        "params", "--topology", "braided", "--theta-min", "0",
        "--theta-max", "6.283185307179586", "--theta-steps", "201",
        "--gamma", "0.1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(PARAMS_HEADER)
    rows = {float(l.split(",")[0]): [float(v) for v in l.split(",")[1:]] for l in lines[1:]}
    row = rows[min(rows, key=lambda th: abs(th - math.pi / 2))]
    assert row[0] == pytest.approx(0.1, abs=1e-12)        # g_ab
    assert abs(row[1]) < 1e-12 and abs(row[2]) < 1e-12    # Gamma_a, Gamma_b
    assert abs(row[3]) < 1e-12                            # Gamma_coll


def test_params_separated_pi_row_zero(tmp_path):
    out = tmp_path / "p.csv"
    assert main([
        "params", "--topology", "separated", "--theta-min", "3.141592653589793",
        "--theta-max", "6.3", "--theta-steps", "2", "--out", str(out),
    ]) == 0
    first_row = out.read_text().splitlines()[1].split(",")
    assert all(abs(float(v)) <= 1e-12 for v in first_row[1:])


def test_params_to_stdout(capsys):
    assert main(["params", "--theta-steps", "3", "--theta-max", "1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(PARAMS_HEADER)
    assert len(lines) == 4


def test_write_csv_matches_per_value_format():
    rng = np.random.default_rng(7)
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e22, 1.0 / 3.0, math.pi, 1e-310, -1e300, 2.0**53 + 1]
    scaled = rng.normal(size=(20, 6)) * 10.0 ** rng.integers(-30, 30, size=(20, 6))
    table = np.vstack([np.reshape(edge * 3, (5, 6)), scaled])
    # params rows are tuples of a numpy theta and Python floats
    params_rows = [(r[0], *r[1:].tolist()) for r in table]
    for rows in (table, [tuple(r) for r in table.tolist()], params_rows):
        out = io.StringIO()
        write_csv(out, ("a", "b", "c", "d", "e", "f"), rows, {"k": "v"})
        want = "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in table)
        assert out.getvalue() == "a,b,c,d,e,f\n" + want + "# k = v\n"
    # rows are formatted a block at a time: two full blocks and a partial one
    out = io.StringIO()
    write_csv(out, ("a", "b", "c", "d", "e", "f"), np.tile(table, (21, 1)))
    assert out.getvalue() == "a,b,c,d,e,f\n" + want * 21


def test_charge_command_columns_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["charge", "--topology", "braided", "--theta", "1.5707963267948966",
            "--tmax", "10", "--dt", "0.02", "--stride", "100"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join(CHARGE_HEADER)
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 10.0
    assert last[2] == pytest.approx(math.sin(1.0) ** 2, abs=1e-6)  # p_b


def test_sweep_output_shape_and_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,t,E,ergotropy,sigma,power"
    data = [l for l in lines if not l.startswith("#")]
    summary = [l for l in lines if l.startswith("#")]
    assert any("max_sigma" in l for l in summary)
    assert any("max_E_end" in l for l in summary)
    # theta-major ordering with t increasing within each block
    thetas = [float(l.split(",")[0]) for l in data[1:]]
    assert thetas == sorted(thetas)


def test_sweep_metric_subset(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ARGS + ["--metrics", "E,energy_power", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "theta,t,E,energy_power"


def test_json_format(tmp_path):
    out = tmp_path / "run.json"
    assert main(["chiral", "--gamma-max", "1.0", "--tau-scaled", "10",
                 "--dt", "0.01", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"records", "summary"}
    assert payload["summary"]["efficiency"] >= 0.99
    assert payload["summary"]["leakage"] <= 0.01
    rec = payload["records"][-1]
    assert set(rec) == set(CHARGE_HEADER) | {"leakage"}


@pytest.mark.parametrize("args", [
    ["sweep", "--theta-steps", "5", "--tmax", "2", "--dt", "0.04"],
    ["chiral", "--tau-scaled", "2", "--dt", "0.05"],
])
def test_csv_and_json_carry_the_same_numbers(tmp_path, args):
    csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
    assert main(args + ["--out", str(csv_path)]) == 0
    assert main(args + ["--format", "json", "--out", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    lines = csv_path.read_text().splitlines()
    table = [line.split(",") for line in lines if not line.startswith("#")]
    summary = dict(line[2:].split(" = ") for line in lines if line.startswith("#"))
    assert [list(rec) for rec in payload["records"]] == [table[0]] * len(payload["records"])
    assert [[float(v) for v in row] for row in table[1:]] == [list(rec.values()) for rec in payload["records"]]
    assert {k: float(v) for k, v in summary.items()} == payload["summary"]


def test_chiral_command_csv(tmp_path):
    out = tmp_path / "chiral.csv"
    assert main(["chiral", "--gamma-max", "1.0", "--tau-scaled", "10",
                 "--dt", "0.01", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CHARGE_HEADER) + ",leakage"
    assert any(l.startswith("# final_battery_energy") for l in lines)


def test_chiral_stride_only_when_set(tmp_path):
    # 3,000 steps of 0.1, tau at step 1,000; the default stride is 5
    # (about 600 snapshots), not RunConfig's sample_stride of 50
    args = ["chiral", "--gamma-max", "0.1", "--tau-scaled", "10", "--dt", "0.1"]

    def rows(*extra, args=args):
        out = tmp_path / "chiral.csv"
        assert main(args + list(extra) + ["--out", str(out)]) == 0
        return sum(1 for l in out.read_text().splitlines()[1:] if not l.startswith("#"))

    assert rows() == 601
    assert rows("--stride", "7") == 430  # steps 0, 7, ..., 2996 and the last one
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sample_stride = 7\n", encoding="utf-8")
    assert rows("--config", str(cfg_file)) == 430
    # tau = 1e-3 is shorter than dt, so the run steps at 1e-3: 10,000 steps,
    # and the default stride of 17 comes from that step, not from dt's 3
    tiny = ["chiral", "--gamma-max", "1", "--tau-scaled", "1e-3", "--dt", "0.005", "--tmax", "10"]
    assert rows(args=tiny) == 590  # steps 0, 17, ..., 9996 and the last one


def test_commands_build_no_complex_states(monkeypatch, tmp_path):
    # every command starts from one excitation, so its snapshots fill the
    # Delta n = 0 block alone and are checked in closed form, never as 4x4
    # states; the output is the same bytes either way
    commands = [SWEEP_ARGS,
                ["charge", "--topology", "nested", "--theta", "1.1", "--tmax", "10", "--dt", "0.02"],
                ["chiral", "--gamma-max", "1.0", "--tau-scaled", "10", "--dt", "0.01"],
                ["chiral", "--gamma-max", "1.0", "--tau-scaled", "10", "--dt", "0.01", "--direction", "left"]]

    def outputs():
        for i, args in enumerate(commands):
            assert main(args + ["--out", str(tmp_path / f"{i}.csv")]) == 0
        return [(tmp_path / f"{i}.csv").read_bytes() for i in range(len(commands))]

    class BuiltStates(Exception):
        pass

    def refuse(x):
        raise BuiltStates

    want = outputs()
    monkeypatch.setattr(integrator, "density_matrices", refuse)
    assert outputs() == want
    # a state with coherence across the blocks still goes through them
    full_rank = random_density(np.random.default_rng(8))
    with pytest.raises(BuiltStates):
        integrator.evolve(spec_for(NESTED, 1.1), full_rank, integrator.TimeGrid(1.0, dt=0.02))


def test_out_into_missing_directory(tmp_path, capsys):
    path = tmp_path / "absent" / "x.csv"
    assert main(["params", "--theta-steps", "3", "--out", str(path)]) == 1
    assert f"gaqb: error: cannot write {path}: " in capsys.readouterr().err


def test_empty_out_is_a_file_name(capsys):
    # "" names no file; it does not mean stdout
    assert main(["charge", "--tmax", "1", "--out", ""]) == 1
    assert capsys.readouterr() == ("", "gaqb: error: cannot write : No such file or directory\n")


def test_broken_stdout_pipe(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["params", "--theta-steps", "3"]) == 1
    # stdout now points at the null device, so the final flush cannot fail
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == "gaqb: error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 521. MiB", "gaqb: error: out of memory: Unable to allocate 521. MiB\n"),
    ("", "gaqb: error: out of memory\n"),
])
def test_out_of_memory_is_a_named_error(monkeypatch, capsys, message, line):
    # a run that does not fit as configured exits 1, like the step budget
    def run_sweep(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    assert main(["sweep", "--theta-steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == line and captured.out == ""


def test_step_budget_is_checked_on_the_window_each_command_runs(tmp_path, capsys):
    for command in ("charge", "sweep"):
        assert main([command, "--tmax", "1", "--dt", "1e-300"]) == 1
        assert "gaqb: error: dt = 1e-300 needs 1e+300 steps" in capsys.readouterr().err
    # chiral runs [0, 3 tau], not [0, tmax]: 150,000 steps over [0, 0.3]
    out = tmp_path / "chiral.csv"
    assert main(["chiral", "--gamma-max", "10", "--tau-scaled", "1", "--dt", "2e-6",
                 "--stride", "100000", "--out", str(out)]) == 0
    assert sum(1 for l in out.read_text().splitlines()[1:] if not l.startswith("#")) == 3
    assert main(["chiral", "--dt", "1e-6"]) == 1
    assert capsys.readouterr().err == (
        "gaqb: error: dt = 1e-06 needs 3e+08 steps over [0, 300]; at most 10000000 are allowed\n")
    # params runs no window, so no budget applies to it
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("tmax = 1\ndt = 1e-300\n", encoding="utf-8")
    assert main(["params", "--config", str(cfg_file), "--theta-steps", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 4


def test_sweep_checks_its_budget_before_the_theta_grid(monkeypatch, capsys):
    # 10^7 thetas would take about 0.5 GB before the window is refused
    def theta_grid(cfg):
        raise AssertionError("theta grid built before the step budget was checked")

    monkeypatch.setattr(cli, "_theta_grid", theta_grid)
    assert main(["sweep", "--theta-steps", "10000000", "--dt", "1e-9"]) == 1
    assert "gaqb: error: dt = 1e-09 needs 1e+11 steps over [0, 100]" in capsys.readouterr().err


def test_exit_code_usage_errors(capsys):
    assert main(["charge", "--topology", "toroidal"]) == 1
    assert main(["sweep", "--theta-steps", "1"]) == 1
    assert main(["nonsense"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    # chiral's default 3 tau window, which tmax does not bound, has the
    # same step budget
    assert main(["chiral", "--tau-scaled", "1e9", "--dt", "0.01"]) == 1
    assert "gaqb: error: dt = 0.01 needs 3e+12 steps" in capsys.readouterr().err
    # tau = tau_scaled / gamma_max overflows to inf or underflows to 0: the
    # error names the ratio, not the window or the protocol it would break
    for tau_scaled, gamma_max in (("1e308", "1e-300"), ("1e-300", "1e300")):
        assert main(["chiral", "--tau-scaled", tau_scaled, "--gamma-max", gamma_max]) == 1
        assert "tau_scaled / gamma_max" in capsys.readouterr().err
    # a tau shorter than dt shrinks chiral's step to tau, which puts this
    # window over the budget before any step is taken; the refusal names
    # tau and the step, not the dt the user gave
    assert main(["chiral", "--gamma-max", "1", "--tau-scaled", "1e-6", "--dt", "0.01",
                 "--tmax", "50"]) == 1
    assert capsys.readouterr().err == (
        "gaqb: error: the step 1e-06 that lands on tau = tau_scaled / gamma_max = 1e-06 "
        "needs 5e+07 steps over [0, 50]; at most 10000000 are allowed\n")
    # each command takes only the flags it reads, spelled out in full
    for args in (["charge", "--omega0", "2"], ["chiral", "--topology", "nested"],
                 ["chiral", "--gamma", "0.1"], ["params", "--tmax", "5"],
                 ["sweep", "--theta", "1"]):
        assert main(args) == 1
        assert f"unrecognized arguments: {' '.join(args[1:])}" in capsys.readouterr().err
    # sin(2 theta) or sin(3 theta) would overflow; the error names the key
    for args, key in ((["charge", "--theta", "1e308"], "theta"),
                      (["params", "--theta-max", "1e308", "--theta-steps", "3"], "theta_max"),
                      (["sweep", "--theta-max", "1e308", "--theta-steps", "3", "--tmax", "1"],
                       "theta_max"),
                      (["chiral", "--theta", "1e308"], "theta"),
                      (["sweep", "--theta-min=-1e308", "--theta-steps", "3", "--tmax", "1"],
                       "theta_min"),
                      (["sweep", "--theta-min", "-1e308", "--theta-steps", "3", "--tmax", "1"],
                       "theta_min")):
        assert main(args) == 1
        assert f"gaqb: error: |{key}| must be at most 5.99231e+307" in capsys.readouterr().err
    assert main(["charge", "--theta", "1e307", "--tmax", "1", "--stride", "200"]) == 0
    assert capsys.readouterr().out.count("\n") == 3  # header, t = 0 and t = 1


def test_negative_exponent_values_take_a_space(capsys):
    # argparse alone reads '-1e-3' as a flag and exits with "expected one
    # argument"; spelled with a space it gives the '=' spelling's bytes
    for command, args in (("charge", ["--theta", "-1e-3"]),
                          ("sweep", ["--theta-min", "-1e-3", "--theta-steps", "2"])):
        run = [command, *args, "--tmax", "1", "--stride", "100"]
        assert main(run) == 0
        spaced = capsys.readouterr().out
        assert main([command, f"{args[0]}={args[1]}", *args[2:], "--tmax", "1", "--stride", "100"]) == 0
        assert capsys.readouterr().out == spaced
    # the value is then checked as any other: an int flag, a non-finite value
    assert main(["sweep", "--theta-steps", "-1e3"]) == 1
    assert "argument --theta-steps: invalid int value: '-1e3'" in capsys.readouterr().err
    assert main(["charge", "--theta", "-inf"]) == 1
    assert "gaqb: error: theta must be finite" in capsys.readouterr().err
    # a token that is no number is not taken as the value
    assert main(["charge", "--theta", "-x"]) == 1
    assert "argument --theta: expected one argument" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_numerical_failure(tmp_path, capsys):
    rc = main(["charge", "--topology", "braided", "--theta", "0",
               "--dt", "40", "--tmax", "20000", "--stride", "1000000000",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err
    rc = main(["sweep", "--theta-min", "0.25", "--theta-max", "1", "--theta-steps", "2",
               "--dt", "40", "--tmax", "20000", "--stride", "1000000000"])
    assert rc == 2
    assert "sweep cell theta = 0.25 failed: non-finite state at t = " in capsys.readouterr().err
    # the chiral coefficients overflow (sqrt(Gamma_a Gamma_b) at Gamma_max = 1e300),
    # or a near-decoupling theta makes the Lamb shifts too stiff for dt
    for args in (["--gamma-max", "1e300", "--tau-scaled", "10", "--dt", "0.5"],
                 ["--theta", "1e-11", "--gamma-max", "0.1", "--tau-scaled", "10", "--dt", "0.02"]):
        assert main(["chiral", *args, "--out", str(tmp_path / "c.csv")]) == 2
        assert "numerical failure: non-finite state at t = " in capsys.readouterr().err
    # gamma = 1e308 overflows the coefficients at theta = 0 already
    assert main(["params", "--gamma", "1e308", "--theta-steps", "3",
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert "numerical failure: coefficients at theta = 0 are not finite" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_sweep_cells_bit_identical_in_any_shard(workers):
    # mirror pairs theta, 2 pi - theta in the nested layout, where the
    # summary's argmax can rest on a 1e-16 difference between the two;
    # the workers setting is still accepted and must not change a bit
    lo = 0.4
    cfg = RunConfig(topology="nested", theta_min=lo, theta_max=2 * math.pi - lo, theta_steps=4,
                    tmax=6.0, dt=0.04, sample_stride=5, workers=workers)
    res = run_sweep(cfg)
    assert len(res.cells) == 4
    grid = integrator.TimeGrid(cfg.tmax, dt=cfg.dt, sample_stride=5)
    for th, cell in zip(res.thetas, res.cells):
        alone = _sweep_cell(cfg, [float(th)], grid)[0]
        assert alone.shape == cell.shape
        assert (alone.view(np.uint64) == cell.view(np.uint64)).all()


def test_cli_import_loads_no_process_pool():
    # the sweep runs in this process; the pool modules would only add setup time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, gaqb.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_sweep_ties_go_to_first_theta():
    # ergotropy and power are exactly 0 on every nested cell
    cfg = RunConfig(topology="nested", theta_min=0.3, theta_max=5.0, theta_steps=4,
                    tmax=6.0, dt=0.04, sample_stride=5)
    summary = run_sweep(cfg).summary
    for name in ("ergotropy", "power"):
        assert summary[f"max_{name}"] == 0.0
        assert summary[f"argmax_{name}_theta"] == 0.3
        assert summary[f"argmax_{name}_t"] == 0.0


def test_dense_reruns_batched_bitwise():
    # nested: ergotropy and power are 0 everywhere, so they pick theta_min
    # while E and sigma pick another theta; one batch reruns both
    cfg = RunConfig(topology="nested", theta_min=0.3, theta_max=5.0, theta_steps=5,
                    tmax=10.0, dt=0.04, sample_stride=5)
    summary = run_sweep(cfg).summary
    best = {name: summary[f"argmax_{name}_theta"] for name in SWEEP_METRICS}
    assert len(set(best.values())) >= 2
    for name in SWEEP_METRICS:
        cell = _sweep_cell(cfg, [best[name]], integrator.TimeGrid(cfg.tmax, dt=cfg.dt))[0]
        t, f = _parabolic_peak(cell.t, cell[name], int(np.argmax(cell[name])))
        assert summary[f"max_{name}"].hex() == f.hex()
        assert summary[f"argmax_{name}_t"].hex() == t.hex()


# recorded on the 7-coordinate block march (max_E was one ulp higher,
# ...672p-2, on the complex (N,4,4) stack before it); the E and sigma
# maxima of the mirror cells 8 and 42 differ by one ulp, so a change of
# rounding in the march can move their argmax_*_theta to the mirror phase
NESTED_SHORT_SUMMARY = {
    "max_E": "0x1.50de8fd6d1671p-2",
    "argmax_E_theta": "0x1.015bf9217271ap+0",
    "argmax_E_t": "0x1.c0a557388adefp+2",
    "max_ergotropy": "0x0.0p+0",
    "argmax_ergotropy_theta": "0x0.0p+0",
    "argmax_ergotropy_t": "0x0.0p+0",
    "max_sigma": "0x1.e11ddf3827987p-2",
    "argmax_sigma_theta": "0x1.015bf9217271ap+0",
    "argmax_sigma_t": "0x1.c0a558f0590c4p+2",
    "max_power": "0x0.0p+0",
    "argmax_power_theta": "0x0.0p+0",
    "argmax_power_t": "0x0.0p+0",
    "max_energy_power": "0x1.d9c3d1f5beb8cp-5",
    "argmax_energy_power_theta": "0x1.015bf9217271ap+0",
    "argmax_energy_power_t": "0x1.14b87a1cf5709p+2",
    "max_E_end": "0x1.ffa8134294b7ep-3",
    "argmax_E_end_theta": "0x0.0p+0",
}


def test_nested_sweep_summary_recorded_bits():
    cfg = RunConfig(topology="nested", theta_steps=51, tmax=20.0, dt=0.04, sample_stride=5)
    summary = run_sweep(cfg).summary
    assert {k: v.hex() for k, v in summary.items()} == NESTED_SHORT_SUMMARY


def test_config_file_drives_run(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    out = tmp_path / "out.csv"
    cfg_file.write_text(
        "topology = braided\ntheta = 1.5707963267948966\ntmax = 5\n"
        f"dt = 0.02\nsample_stride = 50\nout = {out}\n",
        encoding="utf-8",
    )
    assert main(["charge", "--config", str(cfg_file)]) == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert float(lines[-1].split(",")[0]) == 5.0


def test_run_sweep_refinement_close_to_analytic():
    # tiny braided sweep pinned to the lossless ridge: the refined sigma
    # maximum must hit 1/2 (population crossing one half) well inside 1e-3
    cfg = RunConfig(theta_min=math.pi / 2 - 0.05, theta_max=math.pi / 2 + 0.05,
                    theta_steps=3, tmax=40.0, dt=0.02, sample_stride=10)
    res = run_sweep(cfg)
    assert res.summary["max_sigma"] == pytest.approx(0.5, abs=1e-5)
    assert res.summary["max_E"] == pytest.approx(1.0, abs=1e-5)

    # the dense rerun ends in a 0.45 step after 31 steps of 0.5, next to
    # the peak at t = 5 pi: the parabola must use both spacings
    cfg = RunConfig(theta_min=math.pi / 2, theta_max=1.58, theta_steps=2, tmax=15.95,
                    dt=0.5, sample_stride=1)
    res = run_sweep(cfg)
    assert res.summary["max_E"] <= 1.0
    assert abs(res.summary["argmax_E_t"] - 5 * math.pi) < 1e-4
