import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import gaqb.cli
from gaqb.cli import (
    _CELL_COLS,
    CHARGE_HEADER,
    PARAMS_HEADER,
    ConfigError,
    RunConfig,
    main,
    merge_config,
    read_config_file,
    run_sweep,
    write_csv,
    _fmt,
    _parabolic_peak,
    _sweep_cell,
)

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
    with pytest.raises(ConfigError, match="dt = 1e-300 needs 1e\\+300 steps"):
        merge_config(None, {"tmax": 1.0, "dt": 1e-300})
    with pytest.raises(ConfigError, match="theta_min must be below theta_max"):
        merge_config(None, {"theta_min": 1.0, "theta_max": 0.0})
    # rejected before the theta grid is allocated
    with pytest.raises(ConfigError, match="theta_steps"):
        merge_config(None, {"theta_steps": 10**13})


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
        write_csv(out, ("a", "b", "c", "d", "e", "f"), rows, ["k = v"])
        want = "".join(",".join(_fmt(v) for v in row) + "\n" for row in table)
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


def test_sweep_serial_vs_parallel_bytes(tmp_path):
    a, b, c = (tmp_path / n for n in ("s1.csv", "s2.csv", "p.csv"))
    assert main(SWEEP_ARGS + ["--workers", "1", "--out", str(a)]) == 0
    assert main(SWEEP_ARGS + ["--workers", "1", "--out", str(b)]) == 0
    assert main(SWEEP_ARGS + ["--workers", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def test_sweep_output_shape_and_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(SWEEP_ARGS + ["--workers", "1", "--out", str(out)]) == 0
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
    assert main(SWEEP_ARGS + ["--workers", "1", "--metrics", "E,energy_power",
                              "--out", str(out)]) == 0
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


def test_chiral_command_csv(tmp_path):
    out = tmp_path / "chiral.csv"
    assert main(["chiral", "--gamma-max", "1.0", "--tau-scaled", "10",
                 "--dt", "0.01", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CHARGE_HEADER) + ",leakage"
    assert any(l.startswith("# final_battery_energy") for l in lines)


def test_chiral_stride_only_when_set(tmp_path):
    # 3,000 steps split at tau into 1,000 + 2,000; the default stride is
    # 5 (about 600 snapshots), not RunConfig's sample_stride of 50
    args = ["chiral", "--gamma-max", "0.1", "--tau-scaled", "10", "--dt", "0.1"]

    def rows(*extra):
        out = tmp_path / "chiral.csv"
        assert main(args + list(extra) + ["--out", str(out)]) == 0
        return sum(1 for l in out.read_text().splitlines()[1:] if not l.startswith("#"))

    assert rows() == 601
    assert rows("--stride", "7") == 430  # 1 + 142 + 1 and 285 + 1 snapshots
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sample_stride = 7\n", encoding="utf-8")
    assert rows("--config", str(cfg_file)) == 430


def test_out_into_missing_directory(tmp_path, capsys):
    path = tmp_path / "absent" / "x.csv"
    assert main(["params", "--theta-steps", "3", "--out", str(path)]) == 1
    assert f"gaqb: error: cannot write {path}: " in capsys.readouterr().err


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
               "--dt", "40", "--tmax", "20000", "--stride", "1000000000", "--workers", "1"])
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
    # summary's argmax can rest on a 1e-16 difference between the two
    lo = 0.4
    cfg = RunConfig(topology="nested", theta_min=lo, theta_max=2 * math.pi - lo, theta_steps=4,
                    tmax=6.0, dt=0.04, sample_stride=5, workers=workers)
    res = run_sweep(cfg)
    assert len(res.cells) == 4
    for th, cell in zip(res.thetas, res.cells):
        alone = _sweep_cell(((float(th),), "nested", cfg.gamma, cfg.tmax, cfg.dt, 5))[0]
        assert alone.shape == cell.shape
        assert (alone.view(np.uint64) == cell.view(np.uint64)).all()


def test_sweep_ties_go_to_first_theta():
    # ergotropy and power are exactly 0 on every nested cell
    cfg = RunConfig(topology="nested", theta_min=0.3, theta_max=5.0, theta_steps=4,
                    tmax=6.0, dt=0.04, sample_stride=5, workers=1)
    summary = run_sweep(cfg).summary
    for name in ("ergotropy", "power"):
        assert summary[f"max_{name}"] == 0.0
        assert summary[f"argmax_{name}_theta"] == 0.3
        assert summary[f"argmax_{name}_t"] == 0.0


def test_pool_processes_capped_by_processor_count(monkeypatch):
    class RecordingPool:
        """Runs the mapped shards in this process and records its size."""

        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            shards = list(shards)
            mapped.append(len(shards))
            return [fn(shard) for shard in shards]

    sizes, mapped = [], []
    monkeypatch.setattr(gaqb.cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = RunConfig(topology="braided", theta_max=3.0, theta_steps=9, tmax=2.0, dt=0.05,
                    sample_stride=10)
    serial = run_sweep(replace(cfg, workers=1))
    assert sizes == mapped == []
    for workers, procs, shards in ((10000, 2, 3), (4, 2, 3), (2, 1, 2), (0, 2, 3)):
        res = run_sweep(replace(cfg, workers=workers))
        assert (sizes.pop(), mapped.pop()) == (procs, shards - 1)
        assert (res.cells.view(np.uint64) == serial.cells.view(np.uint64)).all()
        assert res.summary == serial.summary


def test_dense_reruns_batched_bitwise():
    # nested: ergotropy and power are 0 everywhere, so they pick theta_min
    # while E and sigma pick another theta; one batch reruns both
    cfg = RunConfig(topology="nested", theta_min=0.3, theta_max=5.0, theta_steps=5,
                    tmax=10.0, dt=0.04, sample_stride=5, workers=1)
    summary = run_sweep(cfg).summary
    best = {name: summary[f"argmax_{name}_theta"] for name in _CELL_COLS}
    assert len(set(best.values())) >= 2
    for name, col in _CELL_COLS.items():
        cell = _sweep_cell(((best[name],), "nested", cfg.gamma, cfg.tmax, cfg.dt, 1))[0]
        t, f = _parabolic_peak(cell[:, 0], cell[:, col], int(np.argmax(cell[:, col])))
        assert summary[f"max_{name}"].hex() == f.hex()
        assert summary[f"argmax_{name}_t"].hex() == t.hex()


# recorded before the jump terms became block copies; the E and sigma
# maxima of the mirror cells 8 and 42 differ by one ulp, so a change of
# rounding in the rhs moves their argmax_*_theta to the mirror phase
NESTED_SHORT_SUMMARY = {
    "max_E": "0x1.50de8fd6d1672p-2",
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
    cfg = RunConfig(topology="nested", theta_steps=51, tmax=20.0, dt=0.04, sample_stride=5,
                    workers=1)
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
                    theta_steps=3, tmax=40.0, dt=0.02, sample_stride=10, workers=1)
    res = run_sweep(cfg)
    assert res.summary["max_sigma"] == pytest.approx(0.5, abs=1e-5)
    assert res.summary["max_E"] == pytest.approx(1.0, abs=1e-5)

    # the dense rerun ends in a 0.45 step after 31 steps of 0.5, next to
    # the peak at t = 5 pi: the parabola must use both spacings
    cfg = RunConfig(theta_min=math.pi / 2, theta_max=1.58, theta_steps=2, tmax=15.95,
                    dt=0.5, sample_stride=1, workers=1)
    res = run_sweep(cfg)
    assert res.summary["max_E"] <= 1.0
    assert abs(res.summary["argmax_E_t"] - 5 * math.pi) < 1e-4
