"""Command-line front end: single runs, parameter tables, sweeps, chiral runs.

Commands
--------
params   coupling coefficients vs theta for one topology
charge   one charging trajectory from |e_a g_b>, metrics per snapshot
sweep    theta x t grid of charging metrics plus a global-maxima summary
chiral   pitch-catch transfer run with leakage bookkeeping

Output is CSV (header row, 17-significant-digit floats, '\\n' endings,
summary as trailing '#' lines) or JSON ({"records": [...], "summary":
{...}}).  Identical configurations produce byte-identical outputs.  Exit
codes: 0 success, 1 usage/config error or out of memory, 2 numerical
failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional, get_type_hints

import numpy as np

from .chiral import LEFT_TO_CHARGER, RIGHT_TO_BATTERY, ChiralProtocol, run_transfer
from .geometry import BUILTIN_TOPOLOGIES, check_theta, closed_form_params
from .integrator import DEFAULT_DT, MAX_STEPS, TimeGrid, evolve
from .liouville import LiouvillianSpec, SimulationError, projector
from .metrics import compute_records

SWEEP_METRICS = ("E", "ergotropy", "sigma", "power", "energy_power")


class ConfigError(ValueError):
    """Bad flags, bad config file, or invalid run parameters; main reports every ValueError as one."""


# ---------------------------------------------------------------------------
# output formatting

_CSV_BLOCK = 256  # CSV rows formatted by one % operation


def write_csv(stream, header, rows, summary: Optional[dict] = None):
    stream.write(",".join(header) + "\n")
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    rows = np.asarray(rows, dtype=float)
    for start in range(0, len(rows), _CSV_BLOCK):  # as Python floats, which format fastest
        block = rows[start:start + _CSV_BLOCK]
        stream.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    for key, value in (summary or {}).items():
        stream.write(f"# {key} = {format(value, '.17g') if isinstance(value, float) else value}\n")


def write_json(stream, header, rows, summary: Optional[dict] = None):
    records = [dict(zip(header, (float(v) for v in row))) for row in rows]
    payload = {"records": records}
    if summary is not None:
        payload["summary"] = summary
    json.dump(payload, stream, indent=1)
    stream.write("\n")


_WRITERS = {"csv": write_csv, "json": write_json}


def _emit(cfg: RunConfig, header, rows, summary: Optional[dict] = None):
    """Write the rows straight to stdout or to the --out file."""
    try:
        with (contextlib.nullcontext(sys.stdout) if cfg.out is None
              else open(cfg.out, "w", encoding="utf-8", newline="\n")) as stream:
            _WRITERS[cfg.format](stream, header, rows, summary)
            stream.flush()
    except OSError as exc:  # e.g. a closed pipe or a missing directory
        if cfg.out is None:  # the interpreter's final flush of stdout must not fail again
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
        raise ConfigError(f"cannot write {'stdout' if cfg.out is None else cfg.out}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description shared by all commands."""

    topology: str = "braided"
    theta: float = math.pi / 2
    gamma: float = 0.1
    tmax: float = 100.0
    dt: float = DEFAULT_DT
    sample_stride: int = 50
    out: Optional[str] = None
    format: str = "csv"
    # sweep grid
    theta_min: float = 0.0
    theta_max: float = 2.0 * math.pi
    theta_steps: int = 201
    metrics: str = "E,ergotropy,sigma,power"
    workers: int = 0  # accepted for old command lines; the sweep runs in one process
    # chiral protocol
    gamma_max: float = 0.1
    tau_scaled: float = 10.0
    direction: str = RIGHT_TO_BATTERY


_FIELD_TYPES = get_type_hints(RunConfig)
# the values a string field may take, as flag choices and in config files
_CHOICES = {
    "topology": BUILTIN_TOPOLOGIES,
    "format": tuple(_WRITERS),
    "direction": (RIGHT_TO_BATTERY, LEFT_TO_CHARGER),
}
_NUMBER_KINDS = {int: "an integer", float: "a number"}


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
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    for name, allowed in _CHOICES.items():
        if getattr(cfg, name) not in allowed:
            raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {getattr(cfg, name)!r}")
    for name, kind in _FIELD_TYPES.items():
        if kind is float and not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite")
    for name in ("theta", "theta_min", "theta_max"):
        check_theta(getattr(cfg, name), name)
    if cfg.gamma < 0:
        raise ConfigError("gamma must be >= 0")
    if cfg.tmax <= 0 or cfg.dt <= 0:
        raise ConfigError("tmax and dt must be positive")
    if cfg.sample_stride < 1:
        raise ConfigError("sample_stride must be >= 1")
    if not 2 <= cfg.theta_steps <= MAX_STEPS:
        raise ConfigError(f"theta_steps must be in [2, {MAX_STEPS}], got {cfg.theta_steps}")
    if not cfg.theta_min < cfg.theta_max:
        raise ConfigError(f"theta_min must be below theta_max, got [{cfg.theta_min}, {cfg.theta_max}]")
    if cfg.workers < 0:
        raise ConfigError("workers must be >= 0")
    if not (cfg.gamma_max > 0 and 0 < cfg.tau_scaled / cfg.gamma_max < math.inf):
        raise ConfigError("gamma_max and tau_scaled must be positive, with tau_scaled / gamma_max finite and nonzero")
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
# commands

def _theta_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_steps)


PARAMS_HEADER = ("theta", "g_ab", "Gamma_a", "Gamma_b", "Gamma_coll", "delta_a", "delta_b")


def run_params(cfg: RunConfig):
    rows = []
    for th in _theta_grid(cfg):
        p = closed_form_params(cfg.topology, float(th), cfg.gamma)
        row = (th, *(getattr(p, name) for name in PARAMS_HEADER[1:]))
        if not all(map(math.isfinite, row)):
            raise SimulationError(f"coefficients at theta = {th:.10g} are not finite")
        rows.append(row)
    return PARAMS_HEADER, rows


CHARGE_HEADER = ("t", "p_a", "p_b", "E", "ergotropy", "sigma", "power", "purity")


def charge_trajectory(cfg: RunConfig):
    """One charging run from |e_a g_b>; returns its metrics records."""
    spec = LiouvillianSpec(closed_form_params(cfg.topology, cfg.theta, cfg.gamma))
    grid = TimeGrid(cfg.tmax, dt=cfg.dt, sample_stride=cfg.sample_stride)
    return compute_records(evolve(spec, projector("eg"), grid))


def run_charge(cfg: RunConfig):
    recs = charge_trajectory(cfg)
    return CHARGE_HEADER, np.column_stack([recs[name] for name in CHARGE_HEADER])


def _sweep_cell(cfg: RunConfig, thetas, grid: TimeGrid) -> np.recarray:
    """Metric records of theta cells, integrated as one batch on ``grid``.

    Returns the (N,T) record array of :func:`compute_records`, a row per
    cell and a field per metric (``cells.E[i]`` is cell i's battery
    energy over time); a cell's records have the same bits alone or in
    any batch.
    """
    specs = [LiouvillianSpec(closed_form_params(cfg.topology, th, cfg.gamma)) for th in thetas]
    try:
        traj = evolve(specs, projector("eg"), grid)
    except SimulationError as exc:
        theta = thetas[getattr(exc, "cell", 0)]
        raise SimulationError(f"sweep cell theta = {theta:.10g} failed: {exc}") from exc
    return compute_records(traj)


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
    """The theta grid, its cells' (N,T) metric records and the summary."""

    thetas: np.ndarray
    cells: np.recarray  # from _sweep_cell: cells[name][i] is metric name over time at thetas[i]
    summary: dict


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Charging metrics over the theta grid, plus refined global maxima.

    The whole theta grid is integrated as one batch, theta-major.  The
    summary holds, for each metric, the grid maximum refined by a dense
    (every-step) rerun at the best theta followed by three-point
    parabolic interpolation (the distinct best thetas rerun as one
    batch), and also the largest end-of-window battery energy (steady
    storage level).  A tie between thetas goes to the first, so a metric
    that is 0 everywhere (ergotropy and power in the nested layout)
    reports ``theta_min``.
    """
    grid = TimeGrid(cfg.tmax, dt=cfg.dt, sample_stride=cfg.sample_stride)  # its budget, before the theta grid
    thetas = _theta_grid(cfg)
    cells = _sweep_cell(cfg, thetas.tolist(), grid)

    # np.argmax takes the first of equal maxima
    best = {name: float(thetas[np.argmax(cells[name].max(axis=1))]) for name in SWEEP_METRICS}
    reruns = tuple(dict.fromkeys(best.values()))
    dense = dict(zip(reruns, _sweep_cell(cfg, reruns, replace(grid, sample_stride=1))))
    summary: dict = {}
    for name in SWEEP_METRICS:
        cell = dense[best[name]]
        t_peak, f_peak = _parabolic_peak(cell.t, cell[name], int(np.argmax(cell[name])))
        summary[f"max_{name}"] = f_peak
        summary[f"argmax_{name}_theta"] = best[name]
        summary[f"argmax_{name}_t"] = t_peak

    # steady storage level: battery energy at the end of the window
    end = int(np.argmax(cells.E[:, -1]))
    summary["max_E_end"] = float(cells.E[end, -1])
    summary["argmax_E_end_theta"] = float(thetas[end])
    return SweepResult(thetas=thetas, cells=cells, summary=summary)


def run_chiral(cfg: RunConfig, explicit=()):
    """Pitch-catch run; ``explicit`` names the keys set by flag or config file.

    :func:`run_transfer` steps the grid that ``default_grid`` builds from ``dt``; ``tmax``
    and ``sample_stride`` replace its 3 tau window and ~600-snapshot stride only where explicit.
    """
    protocol = ChiralProtocol(gamma_max=cfg.gamma_max, tau=cfg.tau_scaled / cfg.gamma_max,
                              theta=cfg.theta, direction=cfg.direction)
    t_end, stride = (getattr(cfg, key) if key in explicit else None for key in ("tmax", "sample_stride"))
    traj, s = run_transfer(protocol, dt=cfg.dt, t_end=t_end, sample_stride=stride)
    recs = compute_records(traj)
    rows = np.column_stack([*(recs[name] for name in CHARGE_HEADER), traj.aux])
    return CHARGE_HEADER + ("leakage",), rows, asdict(s)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ConfigError(message)


def _flag(field: str) -> str:
    """A RunConfig field's flag: --field-name, and --stride for sample_stride."""
    return "--stride" if field == "sample_stride" else "--" + field.replace("_", "-")


_NUMERIC_FLAGS = {_flag(field) for field, kind in _FIELD_TYPES.items() if kind in _NUMBER_KINDS}
_GRID = ("theta_min", "theta_max", "theta_steps")
_RUN = ("tmax", "dt", "sample_stride")

# each command accepts --config, --out, --format and a flag per RunConfig field it reads
_COMMANDS = {
    "params": ("coupling coefficients vs theta", ("topology", "gamma", *_GRID)),
    "charge": ("single charging trajectory", ("topology", "theta", "gamma", *_RUN)),
    "sweep": ("theta x t metric grid with summary",
              ("topology", "gamma", *_RUN, *_GRID, "metrics", "workers")),
    "chiral": ("pitch-catch transfer run",
               ("theta", *_RUN, "gamma_max", "tau_scaled", "direction")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="gaqb", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, fields) in _COMMANDS.items():
        # no prefix matching: chiral's --gamma must not pass for --gamma-max
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        for field in fields:
            p.add_argument(_flag(field), dest=field, type=_FIELD_TYPES[field], choices=_CHOICES.get(field))
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--format", choices=_CHOICES["format"])
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
            _emit(cfg, *run_params(cfg))
        elif ns.command == "charge":
            _emit(cfg, *run_charge(cfg))
        elif ns.command == "sweep":
            result = run_sweep(cfg)
            columns = ("t", *(m.strip() for m in cfg.metrics.split(",")))
            cells = result.cells
            rows = np.column_stack([np.repeat(result.thetas, cells.shape[1]),
                                    *(cells[name].ravel() for name in columns)])
            header = ("theta", *columns)
            _emit(cfg, header, rows, result.summary)
        else:
            _emit(cfg, *run_chiral(cfg, explicit))
        return 0
    except ValueError as exc:  # a ConfigError, or a library check on the run the config asks for
        print(f"gaqb: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the run does not fit as configured, like the step budget
        print("gaqb: error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"gaqb: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
