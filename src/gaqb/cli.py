"""Command-line front end: single runs, parameter tables, sweeps, chiral runs.

Commands
--------
params   coupling coefficients vs theta for one topology
charge   one charging trajectory from |e_a g_b>, metrics per snapshot
sweep    theta x t grid of charging metrics plus a global-maxima summary
chiral   pitch-catch transfer run with leakage bookkeeping

Output is CSV (header row, 17-significant-digit floats, '\\n' endings,
summary as trailing '#' lines) or JSON ({"records": [...], "summary":
{...}}).  Identical configurations produce byte-identical outputs, serial
or parallel.  Exit codes: 0 success, 1 usage/config error, 2 numerical
failure.
"""
from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Optional, get_type_hints

import numpy as np

from .chiral import ChiralProtocol, default_stride, run_transfer
from .geometry import BUILTIN_TOPOLOGIES, CouplingLayout, closed_form_params
from .integrator import MAX_STEPS, TimeGrid, evolve
from .liouville import LiouvillianSpec, SimulationError, projector
from .metrics import compute_records

SWEEP_METRICS = ("E", "ergotropy", "sigma", "power", "energy_power")
_CELL_COLS = {name: col for col, name in enumerate(SWEEP_METRICS, start=1)}


class ConfigError(Exception):
    """Bad flags, bad config file, or invalid run parameters."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description shared by all commands."""

    topology: str = "braided"
    theta: float = math.pi / 2
    gamma: float = 0.1
    tmax: float = 100.0
    dt: float = 0.005
    sample_stride: int = 50
    out: Optional[str] = None
    format: str = "csv"
    # sweep grid
    theta_min: float = 0.0
    theta_max: float = 2.0 * math.pi
    theta_steps: int = 201
    metrics: str = "E,ergotropy,sigma,power"
    workers: int = 0  # 0 = number of processors
    # chiral protocol
    gamma_max: float = 0.1
    tau_scaled: float = 10.0
    direction: str = "right"


_FIELD_TYPES = get_type_hints(RunConfig)
_NUMBER_KINDS = {int: "an integer", float: "a number"}
_THETA_LIMIT = sys.float_info.max / 3.0  # the coefficients take sin and cos of up to 3 theta
_CSV_BLOCK = 256  # CSV rows formatted by one % operation


def _parse_value(key: str, raw: str, where: str):
    kind = _FIELD_TYPES[key]
    if kind not in _NUMBER_KINDS:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: value for {key!r} must be {_NUMBER_KINDS[kind]}, got {raw!r}")


def read_config_file(path: str) -> dict:
    """Parse a line-oriented 'key = value' file; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    return values


def validate_config(cfg: RunConfig) -> RunConfig:
    if cfg.topology not in BUILTIN_TOPOLOGIES:
        raise ConfigError(f"unknown topology {cfg.topology!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {cfg.format!r}")
    if cfg.direction not in ("right", "left"):
        raise ConfigError(f"direction must be 'right' or 'left', got {cfg.direction!r}")
    for name, kind in _FIELD_TYPES.items():
        if kind is float and not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite")
    for name in ("theta", "theta_min", "theta_max"):
        if abs(getattr(cfg, name)) > _THETA_LIMIT:
            raise ConfigError(f"|{name}| must be at most {_THETA_LIMIT:.6g}, got {getattr(cfg, name):g}")
    if cfg.gamma < 0:
        raise ConfigError("gamma must be >= 0")
    if cfg.tmax <= 0 or cfg.dt <= 0:
        raise ConfigError("tmax and dt must be positive")
    if cfg.sample_stride < 1:
        raise ConfigError("sample_stride must be >= 1")
    try:
        TimeGrid(0.0, cfg.tmax, dt=cfg.dt)  # the step budget
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 2 <= cfg.theta_steps <= MAX_STEPS:
        raise ConfigError(f"theta_steps must be in [2, {MAX_STEPS}], got {cfg.theta_steps}")
    if not cfg.theta_min < cfg.theta_max:
        raise ConfigError(f"theta_min must be below theta_max, got [{cfg.theta_min}, {cfg.theta_max}]")
    if cfg.workers < 0:
        raise ConfigError("workers must be >= 0")
    if cfg.gamma_max <= 0 or cfg.tau_scaled <= 0:
        raise ConfigError("gamma_max and tau_scaled must be positive")
    chosen = [m.strip() for m in cfg.metrics.split(",")]
    unknown = [m for m in chosen if m not in SWEEP_METRICS]
    if unknown:
        raise ConfigError(f"unknown metrics {unknown}; choose from {SWEEP_METRICS}")
    if len(set(chosen)) != len(chosen):
        raise ConfigError(f"duplicate metrics in {cfg.metrics!r}")
    return cfg


def merge_config(file_path: Optional[str], overrides: dict) -> tuple[RunConfig, set]:
    """defaults < config file < explicitly given flags.

    Also returns the set of keys that were explicitly set (file or flag).
    """
    values = read_config_file(file_path) if file_path else {}
    values.update({k: v for k, v in overrides.items() if v is not None})
    return validate_config(replace(RunConfig(), **values)), set(values)


# ---------------------------------------------------------------------------
# output formatting

def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_csv(stream, header, rows, summary_lines=()):
    stream.write(",".join(header) + "\n")
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"  # _fmt's format
    rows = np.asarray(rows, dtype=float)
    for start in range(0, len(rows), _CSV_BLOCK):  # as Python floats, which format fastest
        block = rows[start:start + _CSV_BLOCK]
        stream.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    for line in summary_lines:
        stream.write("# " + line + "\n")


def write_json(stream, header, rows, summary: Optional[dict] = None):
    records = [dict(zip(header, (float(v) for v in row))) for row in rows]
    payload = {"records": records}
    if summary is not None:
        payload["summary"] = summary
    json.dump(payload, stream, indent=1)
    stream.write("\n")


def _emit(cfg: RunConfig, header, rows, summary: Optional[dict] = None):
    """Write the rows straight to stdout or to the --out file."""

    def write(stream):
        if cfg.format == "csv":
            lines = []
            if summary:
                lines = [f"{k} = {_fmt(v) if isinstance(v, float) else v}" for k, v in summary.items()]
            write_csv(stream, header, rows, lines)
        else:
            write_json(stream, header, rows, summary)

    if cfg.out is None:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except OSError as exc:  # e.g. a closed pipe
            # the interpreter's final flush of stdout must not fail again
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
            raise ConfigError(f"cannot write stdout: {exc.strerror or exc}")
        return
    try:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# commands

def _theta_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_steps)


PARAMS_HEADER = ("theta", "g_ab", "Gamma_a", "Gamma_b", "Gamma_coll", "delta_a", "delta_b")


def run_params(cfg: RunConfig):
    topo = BUILTIN_TOPOLOGIES[cfg.topology]
    rows = []
    for th in _theta_grid(cfg):
        p = closed_form_params(CouplingLayout(topo, float(th), cfg.gamma))
        row = (th, p.g_ab, p.Gamma_a, p.Gamma_b, p.Gamma_coll, p.delta_a, p.delta_b)
        if not all(map(math.isfinite, row)):
            raise SimulationError(f"coefficients at theta = {th:.10g} are not finite")
        rows.append(row)
    return PARAMS_HEADER, rows


CHARGE_HEADER = ("t", "p_a", "p_b", "E", "ergotropy", "sigma", "power", "purity")


def charge_trajectory(cfg: RunConfig):
    """One charging run from |e_a g_b>; returns its metrics records."""
    layout = CouplingLayout(BUILTIN_TOPOLOGIES[cfg.topology], cfg.theta, cfg.gamma)
    spec = LiouvillianSpec(closed_form_params(layout))
    grid = TimeGrid(0.0, cfg.tmax, dt=cfg.dt, sample_stride=cfg.sample_stride)
    return compute_records(evolve(spec, projector("eg"), grid))


def run_charge(cfg: RunConfig):
    recs = charge_trajectory(cfg)
    return CHARGE_HEADER, np.column_stack([recs[name] for name in CHARGE_HEADER])


def _sweep_cell(args):
    """Metric tables of a run of theta cells, integrated as one batch.

    Module-level so worker processes can unpickle it.  Returns an (N,T,6)
    array of (t, E, ergotropy, sigma, power, energy_power) per cell; a
    cell's table has the same bits alone or in any batch.
    """
    thetas, topology, gamma, tmax, dt, stride = args
    topo = BUILTIN_TOPOLOGIES[topology]
    specs = [LiouvillianSpec(closed_form_params(CouplingLayout(topo, th, gamma)))
             for th in thetas]
    grid = TimeGrid(0.0, tmax, dt=dt, sample_stride=stride)
    try:
        traj = evolve(specs, projector("eg"), grid)
    except SimulationError as exc:
        theta = thetas[getattr(exc, "cell", 0)]
        raise SimulationError(f"sweep cell theta = {theta:.10g} failed: {exc}") from exc
    recs = compute_records(traj)
    return np.stack([recs[name] for name in ("t", *_CELL_COLS)], axis=-1)


def _parabolic_peak(ts, fs, i):
    """Vertex of the parabola through the samples at i - 1, i and i + 1.

    The two spacings may differ: a window's last step can be short.
    """
    if i == 0 or i == len(fs) - 1:
        return float(ts[i]), float(fs[i])
    t1, f1 = float(ts[i]), float(fs[i])
    h0, h2 = float(ts[i - 1]) - t1, float(ts[i + 1]) - t1
    # f = f1 + b u + c u^2 in u = t - t1; s0, s2 are the secant slopes
    s0 = (float(fs[i - 1]) - f1) / h0
    s2 = (float(fs[i + 1]) - f1) / h2
    c = (s0 - s2) / (h0 - h2)
    if c >= 0.0:  # not locally concave; keep the grid sample
        return t1, f1
    b = s0 - c * h0
    return t1 - 0.5 * b / c, f1 - 0.25 * b * b / c


@dataclass
class SweepResult:
    thetas: np.ndarray
    cells: np.ndarray  # (N,T,6): (t, E, ergotropy, sigma, power, energy_power) per theta
    summary: dict


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Charging metrics over the theta grid, plus refined global maxima.

    The theta grid is split into ``min(workers, theta_steps, processors)``
    contiguous shards, each integrated as one batch; shards beyond the
    first run on a spawn pool, one process each.  The output ordering
    is theta-major and identical for any split.  The summary holds, for
    each metric, the grid maximum refined by a dense (every-step) rerun at
    the best theta followed by three-point parabolic interpolation (the
    distinct best thetas rerun as one batch), and also the largest
    end-of-window battery energy (steady storage level).  A tie between
    thetas goes to the first, so a metric that is 0 everywhere (ergotropy
    and power in the nested layout) reports ``theta_min``.
    """
    thetas = _theta_grid(cfg)
    cpus = os.cpu_count() or 1
    rest = (cfg.topology, cfg.gamma, cfg.tmax, cfg.dt, cfg.sample_stride)
    shards = [(tuple(part.tolist()), *rest)
              for part in np.array_split(thetas, min(cfg.workers or cpus, len(thetas), cpus))]
    if len(shards) == 1:
        tables = [_sweep_cell(shards[0])]
    else:
        # spawned workers start from clean interpreters; forking a process
        # whose BLAS thread pool is mid-operation can deadlock the children.
        # This process runs the first shard while the pool runs the others.
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=len(shards) - 1, mp_context=ctx) as pool:
            others = pool.map(_sweep_cell, shards[1:])
            tables = [_sweep_cell(shards[0]), *others]
    cells = np.concatenate(tables)

    # np.argmax takes the first of equal maxima
    best = {name: float(thetas[np.argmax(cells[:, :, col].max(axis=1))])
            for name, col in _CELL_COLS.items()}
    reruns = tuple(dict.fromkeys(best.values()))
    dense = dict(zip(reruns, _sweep_cell((reruns, cfg.topology, cfg.gamma, cfg.tmax, cfg.dt, 1))))
    summary: dict = {}
    for name, col in _CELL_COLS.items():
        cell = dense[best[name]]
        t_peak, f_peak = _parabolic_peak(cell[:, 0], cell[:, col], int(np.argmax(cell[:, col])))
        summary[f"max_{name}"] = f_peak
        summary[f"argmax_{name}_theta"] = best[name]
        summary[f"argmax_{name}_t"] = t_peak

    # steady storage level: battery energy at the end of the window
    end = int(np.argmax(cells[:, -1, 1]))
    summary["max_E_end"] = float(cells[end, -1, 1])
    summary["argmax_E_end_theta"] = float(thetas[end])
    return SweepResult(thetas=thetas, cells=cells, summary=summary)


def run_chiral(cfg: RunConfig, explicit=()):
    """Pitch-catch run; ``explicit`` names the keys set by flag or config file.

    Only an explicit window or stride replaces the protocol's defaults
    (3 tau and about 600 snapshots).
    """
    try:
        protocol = ChiralProtocol(
            gamma_max=cfg.gamma_max,
            tau=cfg.tau_scaled / cfg.gamma_max,
            theta=cfg.theta,
            direction=cfg.direction,
        )
        window = cfg.tmax if "tmax" in explicit else 3.0 * protocol.tau
        stride = (cfg.sample_stride if "sample_stride" in explicit
                  else default_stride(window, cfg.dt))
        grid = TimeGrid(0.0, window, dt=cfg.dt, sample_stride=stride)
    except ValueError as exc:  # a decoupling theta or a window over the step budget
        raise ConfigError(str(exc)) from exc
    traj, s = run_transfer(protocol, grid=grid)
    recs = compute_records(traj)
    rows = np.column_stack([*(recs[name] for name in CHARGE_HEADER), traj.aux])
    return CHARGE_HEADER + ("leakage",), rows, asdict(s)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ConfigError(message)


# each flag once, with its add_argument keywords
_FLAGS = {
    "--topology": {"choices": sorted(BUILTIN_TOPOLOGIES)},
    "--theta": {"type": float},
    "--gamma": {"type": float},
    "--tmax": {"type": float},
    "--dt": {"type": float},
    "--stride": {"type": int, "dest": "sample_stride"},
    "--theta-min": {"type": float},
    "--theta-max": {"type": float},
    "--theta-steps": {"type": int},
    "--metrics": {},
    "--workers": {"type": int},
    "--gamma-max": {"type": float},
    "--tau-scaled": {"type": float},
    "--direction": {"choices": ("right", "left")},
}
_NUMERIC_FLAGS = {flag for flag, kw in _FLAGS.items() if kw.get("type") in (int, float)}
_GRID = ("--theta-min", "--theta-max", "--theta-steps")
_RUN = ("--tmax", "--dt", "--stride")

# each command accepts --config, --out, --format and the flags it reads
_COMMANDS = {
    "params": ("coupling coefficients vs theta", ("--topology", "--gamma", *_GRID)),
    "charge": ("single charging trajectory", ("--topology", "--theta", "--gamma", *_RUN)),
    "sweep": ("theta x t metric grid with summary",
              ("--topology", "--gamma", *_RUN, *_GRID, "--metrics", "--workers")),
    "chiral": ("pitch-catch transfer run",
               ("--theta", *_RUN, "--gamma-max", "--tau-scaled", "--direction")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="gaqb", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        # no prefix matching: chiral's --gamma must not pass for --gamma-max
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--format", choices=("csv", "json"))
    return parser


def _join_negative_values(argv):
    """'--theta -1e-3' as '--theta=-1e-3'.

    argparse reads a token that starts with '-' as a flag unless it looks
    like -5 or -0.5, so '-1e-3' or '-inf' would leave the flag without its
    value.  A numeric flag followed by a token that parses as a float takes
    it as its value; the '=' spelling is read the same way on every Python.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _NUMERIC_FLAGS and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
        overrides = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
        cfg, explicit = merge_config(ns.config, overrides)
        if ns.command == "params":
            header, rows = run_params(cfg)
            _emit(cfg, header, rows)
        elif ns.command == "charge":
            header, rows = run_charge(cfg)
            _emit(cfg, header, rows)
        elif ns.command == "sweep":
            result = run_sweep(cfg)
            chosen = [m.strip() for m in cfg.metrics.split(",")]
            header = ("theta", "t") + tuple(chosen)
            cols = [0] + [_CELL_COLS[m] for m in chosen]
            n, t = result.cells.shape[:2]
            rows = np.column_stack([np.repeat(result.thetas, t),
                                    result.cells[:, :, cols].reshape(n * t, len(cols))])
            _emit(cfg, header, rows, result.summary)
        else:
            header, rows, summary = run_chiral(cfg, explicit)
            _emit(cfg, header, rows, summary)
        return 0
    except ConfigError as exc:
        print(f"gaqb: error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"gaqb: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
