"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402

TINY_JOBS = {
    "charge": ["charge", "--tmax", "1", "--dt", "0.01", "--stride", "10"],
    "chiral": ["chiral", "--gamma-max", "0.1", "--tau-scaled", "1", "--dt", "0.1"],
    "sweep": ["sweep", "--topology", "nested", "--theta-steps", "3", "--tmax", "1",
              "--dt", "0.05", "--stride", "5", "--workers", "1"],
}


def traced(tmp_path, name):
    """Run one tiny traced job; returns (per-module metrics, closure errors, raw trace)."""
    out, trace_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), "--",
            *TINY_JOBS[name], "--out", str(out)]
    proc = subprocess.run(argv, cwd=run.ROOT, env=run.job_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text())
    metrics, errors = run.layer_metrics(trace, wall=1e6)
    return metrics, errors, trace


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traces")
    return {name: traced(tmp, name) for name in TINY_JOBS}


def test_charge_counts_agree(traces):
    m, errors, _ = traces["charge"]
    assert errors == []
    assert m["metrics.records"] == m["integrator.snapshots"] == m["cli.rows"] == 11
    assert m["liouville.rhs_calls"] == 4 * m["integrator.steps"] == 400
    assert m["chiral.coeff_calls"] == m["chiral.leak_calls"] == 0
    assert m["cli.cells"] == 1 and m["cli.dense_reruns"] == 0
    assert m["cli.bytes"] > 0


def test_chiral_counts(traces):
    m, errors, _ = traces["chiral"]
    assert errors == []
    steps = m["integrator.steps"]
    assert steps == 300
    assert m["chiral.coeff_calls"] == 8 * steps  # 4 rhs stages + 4 leak stages
    assert m["chiral.leak_calls"] == 4 * steps
    # the run is split at tau, and the two pieces share one snapshot
    assert m["metrics.records"] == m["integrator.snapshots"] - 1 == m["cli.rows"]


def test_sweep_counts(traces):
    m, errors, _ = traces["sweep"]
    assert errors == []
    assert m["cli.cells"] == 3
    assert m["cli.dense_reruns"] >= 1
    assert m["metrics.records"] == m["integrator.snapshots"]
    assert m["cli.rows"] == 3 * 5
    assert m["liouville.rhs_calls"] == 4 * m["integrator.steps"]


def test_every_wrapper_reached(traces):
    hits = {}
    for _, _, trace in traces.values():
        for site, n in trace["hits"].items():
            hits[site] = hits.get(site, 0) + n
    sites = {f"{mod.split('.')[-1]}.{attr}" for _, mod, attr in tracer.SITES}
    missed = sorted(s for s in sites | set(tracer.DYNAMIC_SPANS) if not hits.get(s))
    assert missed == []


def test_self_times_close(traces):
    for m, _, trace in traces.values():
        self_ns = sum(v["self_ns"] for v in trace["spans"].values())
        assert self_ns == trace["outer_ns"]
        assert sum(m[f"{mod}.self_s"] for mod in run.MODULES) == pytest.approx(self_ns / 1e9)


def test_double_counting_is_caught(traces):
    trace = json.loads(json.dumps(traces["chiral"][2]))
    trace["spans"]["chiral.coeff"]["self_ns"] += 1000
    _, errors = run.layer_metrics(trace, wall=1e6)
    assert errors


def charge_output(pb_error=0.0):
    t = np.linspace(0.0, 100.0, 20001)
    pb = np.sin(0.1 * t) ** 2 + pb_error
    data = np.column_stack([t, 1.0 - pb, pb, pb, pb, 0 * t, 0 * t, 1.0 + 0 * t])
    return run.Output(list(run.CHARGE_COLUMNS), data, {})


def test_checks_and_reference_catch_deviations():
    good = charge_output()
    assert run.check_charge(good, 0) == []
    assert run.check_charge(charge_output(2e-6), 0)
    ref = run.digest(good)
    assert run.compare(ref, good) == []
    assert run.compare(ref, charge_output(1e-11))
    assert run.compare(ref, charge_output(1e-13)) == []


def test_sweep_seed_shifts_grid():
    lo0, hi0 = run.sweep_theta_range(0)
    assert (lo0, hi0) == (0.0, 2 * math.pi)
    lo3, _ = run.sweep_theta_range(13)
    assert lo3 == pytest.approx(0.3 * 2 * math.pi / 50)
    assert run.WORKLOADS["sweep-nested"].variant(13) == "sweep-nested/3"
