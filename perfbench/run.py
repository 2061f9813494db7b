"""End-to-end and per-module benchmark of the gaqb command-line jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job is ``python -m gaqb.cli
...`` with ``PYTHONPATH=src`` and BLAS/OpenMP pinned to one thread, run in
a fresh process; jobs run one at a time from this process (a closed loop
with one client) until S seconds have passed, at least once.  Every job's
output file is checked: the physics bounds of its workload and the values
recorded from the reference commit in ``reference.json`` (to 1e-12).

--trace 0  prints the end-to-end metrics: medians over the run's jobs (the
           largest for peak_rss_mb), and setup_s over three fresh imports
           timed before each job.
--trace 1  runs the job untraced and traced (``tracer.py``) in turn and
           prints the per-module metrics of the traced jobs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table and the run's metadata.  Exit 2 without a result when the
checkout holds no gaqb sources or a job cannot be set up at all.

Workloads (why each one is here):

sweep-nested    51 theta x 2,500-step cells plus dense reruns on a 2-worker
                spawn pool: time-independent dissipative generators, the
                batched-sweep target.  The seed shifts the theta grid by
                a tenth-of-a-step multiple (10 variants, all referenced).
chiral-forward  15,000 steps of the time-dependent cascaded generator with
                the leak integrand co-integrated; metrics and output are
                under 1% here, so it is their bypass case.
charge-dense    one 20,000-step braided cell at the decoherence-free point
                with a snapshot every step: per-snapshot checks, metrics
                and CSV output dominate, and the rhs takes its
                zero-dissipation shortcut.  Seed-independent.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import hashlib
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PER_JOB = 3          # timed fresh-interpreter set-ups before each job
JOB_TIMEOUT_S = 120.0      # a job still running then is killed and counted failed
RUN_LIMIT_S = 150.0        # no job starts that would be expected to end after this
REF_TOL = 1e-12            # agreement with the recorded outputs, per value

SWEEP_STEPS = 51
SWEEP_VARIANTS = 10
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# workloads

def sweep_theta_range(seed: int) -> tuple[float, float]:
    """Theta grid shifted by (seed mod 10)/10 of one grid step."""
    shift = (seed % SWEEP_VARIANTS) / SWEEP_VARIANTS * TWO_PI / (SWEEP_STEPS - 1)
    return shift, TWO_PI + shift


def sweep_args(seed: int, serial: bool) -> list[str]:
    lo, hi = sweep_theta_range(seed)
    # spawned workers would not inherit the tracer, so traced runs use one worker
    return ["sweep", "--topology", "nested", "--theta-min", repr(lo), "--theta-max", repr(hi),
            "--theta-steps", str(SWEEP_STEPS), "--tmax", "100", "--dt", "0.04",
            "--stride", "5", "--workers", "1" if serial else "2"]


def chiral_args(seed: int, serial: bool) -> list[str]:
    return ["chiral", "--gamma-max", "0.1", "--tau-scaled", "10", "--dt", "0.02"]


def charge_args(seed: int, serial: bool) -> list[str]:
    return ["charge", "--topology", "braided", "--theta", repr(math.pi / 2), "--gamma", "0.1",
            "--tmax", "100", "--dt", "0.005", "--stride", "1"]


@dataclass
class Output:
    """A parsed CSV output file."""

    header: list
    data: np.ndarray  # (rows, columns)
    summary: dict

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.header.index(name)]


def parse_csv(path: Path) -> Output:
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    summary = {}
    for ln in lines[1:]:
        if ln.startswith("# "):
            key, value = ln[2:].split(" = ", 1)
            summary[key] = float(value)
    values = np.array(",".join(body).split(","), dtype=float) if body else np.zeros(0)
    return Output(header, values.reshape(len(body), len(header)), summary)


CHARGE_COLUMNS = ("t", "p_a", "p_b", "E", "ergotropy", "sigma", "power", "purity")


def _bound(errors: list, name: str, value: float, limit: float, op: str = "<="):
    ok = value <= limit if op == "<=" else value >= limit
    if not ok:
        errors.append(f"{name} = {value:.3e}, expected {op} {limit:g}")


def check_sweep(out: Output, seed: int) -> list:
    errors = []
    if out.header != ["theta", "t", "E", "ergotropy", "sigma", "power"]:
        return [f"unexpected header {out.header}"]
    if len(out.data) != SWEEP_STEPS * 501:
        return [f"{len(out.data)} rows, expected {SWEEP_STEPS * 501}"]
    E = out.col("E")
    _bound(errors, "min E", float(E.min()), 0.0, ">=")
    _bound(errors, "max E", float(E.max()), 1.0)
    _bound(errors, "max_ergotropy", out.summary.get("max_ergotropy", math.inf), 1e-9)
    thetas = out.col("theta")[::501]
    _bound(errors, "theta grid deviation",
           float(np.abs(thetas - np.linspace(*sweep_theta_range(seed), SWEEP_STEPS)).max()), 1e-12)
    return errors


def check_chiral(out: Output, seed: int) -> list:
    errors = []
    if len(out.data) != 601 or out.header != [*CHARGE_COLUMNS, "leakage"]:
        return [f"{len(out.data)} rows with header {out.header}, expected 601"]
    _bound(errors, "final_battery_energy", out.summary.get("final_battery_energy", -1.0), 0.99, ">=")
    _bound(errors, "leakage", out.summary.get("leakage", math.inf), 0.01)
    ledger = np.abs(out.col("p_a") + out.col("p_b") + out.col("leakage") - 1.0).max()
    _bound(errors, "|p_a + p_b + leakage - 1|", float(ledger), 1e-6)
    return errors


def check_charge(out: Output, seed: int) -> list:
    errors = []
    if len(out.data) != 20001 or out.header != list(CHARGE_COLUMNS):
        return [f"{len(out.data)} rows with header {out.header}, expected 20001"]
    t, pa, pb = out.col("t"), out.col("p_a"), out.col("p_b")
    _bound(errors, "|p_b - sin^2(0.1 t)|", float(np.abs(pb - np.sin(0.1 * t) ** 2).max()), 1e-6)
    _bound(errors, "|purity - 1|", float(np.abs(out.col("purity") - 1.0).max()), 1e-8)
    _bound(errors, "|p_a + p_b - 1|", float(np.abs(pa + pb - 1.0).max()), 1e-8)
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    args: Callable[[int, bool], list]  # (seed, serial) -> gaqb cli arguments
    check: Callable[[Output, int], list]
    variants: int = 1  # distinct inputs the seed selects among

    def variant(self, seed: int) -> str:
        return f"{self.name}/{seed % self.variants}"


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-nested", sweep_args, check_sweep, SWEEP_VARIANTS),
        Workload("chiral-forward", chiral_args, check_chiral),
        Workload("charge-dense", charge_args, check_charge),
    )
}


# ---------------------------------------------------------------------------
# reference values

def digest(out: Output) -> dict:
    """Values compared against the reference: ~64 sampled rows, column sums, summary."""
    n = len(out.data)
    idx = sorted(set(range(0, n, max(1, n // 64))) | {n - 1})
    return {
        "header": out.header,
        "rows": n,
        "summary": out.summary,
        "sample": out.data[idx].tolist(),
        "colsum": out.data.sum(axis=0).tolist(),
    }


def compare(ref: dict, out: Output) -> list:
    mine = digest(out)
    for key in ("header", "rows"):
        if mine[key] != ref[key]:
            return [f"{key} differs from the reference: {mine[key]} != {ref[key]}"]
    if sorted(mine["summary"]) != sorted(ref["summary"]):
        return ["summary keys differ from the reference"]
    errors = []
    dev = max(
        float(np.abs(np.array(mine["sample"]) - np.array(ref["sample"])).max()),
        max((abs(mine["summary"][k] - v) for k, v in ref["summary"].items()), default=0.0),
    )
    _bound(errors, "max deviation from reference", dev, REF_TOL)
    # each of the n summed values may move by the tolerance
    sum_dev = float(np.abs(np.array(mine["colsum"]) - np.array(ref["colsum"])).max())
    _bound(errors, "column-sum deviation from reference", sum_dev, REF_TOL * ref["rows"])
    return errors


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running jobs

def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class Job:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_job(argv: list, env: dict, work: Path) -> Job:
    """Run argv to completion; wall from launch to exit, rusage of the job tree."""
    err_path = work / "stderr.txt"
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # any worker the job left behind
    # the job's rusage includes its reaped workers; maxrss is the largest process, in KiB
    return Job(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode,
               err_path.read_text(encoding="utf-8", errors="replace"))


class SetupError(Exception):
    """The checkout cannot run a job at all."""


def measure_setup(env: dict, work: Path, repeats: int) -> list:
    """Wall times of fresh interpreters importing gaqb.cli and building its parser."""
    argv = [sys.executable, "-c", "import gaqb.cli; gaqb.cli.build_parser()"]
    times = []
    for _ in range(repeats):
        job = run_job(argv, env, work)
        if job.code != 0:
            raise SetupError(f"importing gaqb.cli failed:\n{job.stderr}")
        times.append(job.wall)
    return times


@dataclass
class Attempt:
    job: Job
    rows: int
    errors: list
    trace: dict = field(default_factory=dict)


def attempt(wl: Workload, seed: int, serial: bool, traced: bool, env: dict,
            work: Path, reference: dict) -> Attempt:
    """One job of the workload, checked; traced=True runs it under tracer.py."""
    out_path = work / "out.csv"
    trace_path = work / "trace.json"
    for p in (out_path, trace_path):
        p.unlink(missing_ok=True)
    cli = wl.args(seed, serial) + ["--out", str(out_path)]
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), "--", *cli]
    else:
        argv = [sys.executable, "-m", "gaqb.cli", *cli]
    job = run_job(argv, env, work)
    if job.code != 0:
        return Attempt(job, 0, [f"exit code {job.code}: {job.stderr.strip()[-500:]}"])
    try:
        out = parse_csv(out_path)
    except (OSError, ValueError) as exc:
        return Attempt(job, 0, [f"unreadable output: {exc}"])
    errors = wl.check(out, seed)
    ref = reference.get(wl.variant(seed))
    if ref is not None:
        errors += compare(ref, out)
    trace = {}
    if traced:
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    return Attempt(job, len(out.data), errors, trace)


def closed_loop(run_one: Callable[[], list], seconds: float) -> list:
    """Call run_one until `seconds` have passed (at least once); returns the attempts."""
    attempts = []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        batch = run_one()
        attempts += batch
        longest = max(longest, sum(a.job.wall for a in batch))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or elapsed + 1.5 * longest > RUN_LIMIT_S:
            return attempts


# ---------------------------------------------------------------------------
# metrics

def end_to_end(attempts: list, setup: list) -> dict:
    ok = [a for a in attempts if not a.errors] or attempts
    med = statistics.median
    return {
        "wall_s": (med([a.job.wall for a in ok]), "s"),
        "cpu_s": (med([a.job.cpu for a in ok]), "s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (max(a.job.rss_mb for a in ok), "MB"),
        "rows_per_s": (med([a.rows / a.job.wall for a in ok]), "1/s"),
        "ok_frac": (sum(1 for a in attempts if not a.errors) / len(attempts), "frac"),
    }


LAYER_UNITS = {
    "geometry.calls": "count", "geometry.self_s": "s",
    "liouville.build_calls": "count", "liouville.build_s": "s",
    "liouville.rhs_calls": "count", "liouville.rhs_s": "s", "liouville.rhs_us": "us",
    "liouville.self_s": "s",
    "integrator.evolve_calls": "count", "integrator.steps": "count",
    "integrator.snapshots": "count", "integrator.self_s": "s",
    "integrator.us_per_step": "us", "integrator.rhs_per_step": "count/step",
    "metrics.calls": "count", "metrics.records": "count", "metrics.self_s": "s",
    "metrics.us_per_record": "us",
    "chiral.coeff_calls": "count", "chiral.coeff_s": "s", "chiral.leak_calls": "count",
    "chiral.leak_s": "s", "chiral.self_s": "s",
    "cli.cells": "count", "cli.dense_reruns": "count", "cli.rows": "count",
    "cli.bytes": "bytes", "cli.write_s": "s", "cli.self_s": "s",
    "trace.unwrapped_s": "s", "trace.overhead_s": "s",
}
MODULES = ("geometry", "liouville", "integrator", "metrics", "chiral", "cli")


def layer_metrics(trace: dict, wall: float) -> tuple[dict, list]:
    """Per-module metrics of one traced job whose wall time was `wall`."""
    spans = trace["spans"]
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    calls = lambda k: spans.get(k, empty)["calls"]
    total = lambda k: spans.get(k, empty)["total_ns"] / 1e9
    own = lambda k: spans.get(k, empty)["self_ns"] / 1e9
    module_ns = {m: sum(v["self_ns"] for k, v in spans.items() if k.split(".")[0] == m)
                 for m in MODULES}
    self_ns = sum(module_ns.values())
    errors = []
    # self-time closure: nested spans are counted once, inside the job's wall time
    if self_ns != trace["outer_ns"]:
        errors.append(f"self times sum to {self_ns} ns, outermost spans cover {trace['outer_ns']} ns")
    if self_ns / 1e9 > wall:
        errors.append(f"self times {self_ns / 1e9:.3f} s exceed the job's wall {wall:.3f} s")
    c = trace["counts"]
    steps, rhs_calls, records = c["steps"], calls("liouville.rhs"), c["records"]
    per = lambda x, n: x / n if n else 0.0
    m = {
        "geometry.calls": calls("geometry.params"),
        "liouville.build_calls": calls("liouville.build"),
        "liouville.build_s": total("liouville.build"),
        "liouville.rhs_calls": rhs_calls,
        "liouville.rhs_s": own("liouville.rhs"),
        "liouville.rhs_us": 1e6 * per(own("liouville.rhs"), rhs_calls),
        "integrator.evolve_calls": calls("integrator.evolve"),
        "integrator.steps": steps,
        "integrator.snapshots": c["snapshots"],
        "integrator.us_per_step": 1e6 * per(total("integrator.evolve"), steps),
        "integrator.rhs_per_step": per(rhs_calls, steps),
        "metrics.calls": calls("metrics.records"),
        "metrics.records": records,
        "metrics.us_per_record": 1e6 * per(module_ns["metrics"] / 1e9, records),
        "chiral.coeff_calls": calls("chiral.coeff"),
        "chiral.coeff_s": own("chiral.coeff"),
        "chiral.leak_calls": calls("chiral.leak"),
        "chiral.leak_s": own("chiral.leak"),
        "cli.cells": c["cells"],
        "cli.dense_reruns": calls("cli.cell") - c["sweep_cells"],
        "cli.rows": c["rows"],
        "cli.bytes": c["bytes"],
        "cli.write_s": total("cli.write"),
        "trace.unwrapped_s": wall - self_ns / 1e9,
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_ns[mod] / 1e9
    return m, errors


def per_layer(pairs: list) -> tuple[dict, list]:
    """Medians of the traced jobs' metrics; counts must repeat exactly."""
    untraced = [a for a, _ in pairs]
    traced = [b for _, b in pairs if not b.errors]
    errors = []
    rows = []
    for b in traced:
        m, errs = layer_metrics(b.trace, b.job.wall)
        rows.append(m)
        errors += errs
    if not rows:
        return {}, errors
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(b.job.wall for b in traced)
                     - statistics.median(a.job.wall for a in untraced))
        elif unit in ("count", "bytes"):
            value = rows[0][name]
            if any(r[name] != value for r in rows):
                errors.append(f"{name} differs between traced jobs")
        else:
            value = statistics.median(r[name] for r in rows)
        metrics[name] = (value, unit)
    return metrics, errors


# ---------------------------------------------------------------------------
# metadata and output

def run_metadata(wl: Workload, seed: int, trace: bool) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaqb").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": wl.name, "seed": seed, "input": wl.variant(seed), "trace": int(trace),
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def print_table(metrics: dict, attempts: int, failed: int):
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':26s} {failed / attempts:14.6g} of {attempts} attempted")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gaqb" / "cli.py").is_file():
        print(f"perfbench: no gaqb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = load_reference()
    env = job_env()
    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    try:
        if args.trace:
            pairs = []

            def one_pair():
                pair = (attempt(wl, args.seed, True, False, env, work, reference),
                        attempt(wl, args.seed, True, True, env, work, reference))
                pairs.append(pair)
                return list(pair)

            attempts = closed_loop(one_pair, args.seconds)
            metrics, trace_errors = per_layer(pairs)
        else:
            measure_setup(env, work, 1)  # warm-up: also writes the bytecode caches
            setup = []

            def one_job():
                # spread over the run, so set-up sees the same machine load as the jobs
                setup.extend(measure_setup(env, work, SETUP_PER_JOB))
                return [attempt(wl, args.seed, False, False, env, work, reference)]

            attempts = closed_loop(one_job, args.seconds)
            metrics, trace_errors = end_to_end(attempts, setup), []
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for a in attempts if a.errors)
    for i, a in enumerate(attempts):
        for e in a.errors:
            print(f"perfbench: job {i}: {e}", file=sys.stderr)
    for e in trace_errors:
        print(f"perfbench: trace: {e}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {len(attempts)} jobs, {failed} failed")
    print_table(metrics, len(attempts), failed)
    print(json.dumps({"meta": run_metadata(wl, args.seed, bool(args.trace))}))
    print(json.dumps({
        "correct": failed == 0 and not trace_errors,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
