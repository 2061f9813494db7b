"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py replaces module attributes of gaqb with timing
wrappers and raises at install time when one is gone, so deleting or
renaming a name it wraps breaks `perfbench/run.py --trace 1`.  These tests
read the tracer's site list, and run it on one tiny job of each traced
command.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaqb.geometry import BRAIDED, closed_form_params
from gaqb.integrator import TimeGrid
from gaqb.liouville import LiouvillianSpec, projector

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
TINY_JOBS = {
    "charge": ["charge", "--tmax", "1", "--dt", "0.01", "--stride", "10"],
    "sweep": ["sweep", "--topology", "nested", "--theta-steps", "3", "--tmax", "1",
              "--dt", "0.05", "--stride", "5", "--workers", "1"],
    "chiral": ["chiral", "--gamma-max", "0.1", "--tau-scaled", "1", "--dt", "0.1"],
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves():
    for key, modname, attr in load_tracer().SITES:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (key, modname, attr)


@pytest.mark.parametrize("modname", ["gaqb.cli", "gaqb.chiral"])
def test_evolve_takes_the_tracer_keywords(modname):
    # the tracer's evolve wrapper passes aux and aux0 by keyword, for a
    # single spec (charge, chiral) and a batch (sweep) alike
    evolve = importlib.import_module(modname).evolve
    spec = LiouvillianSpec(closed_form_params(BRAIDED, 0.7, 0.1))
    for specs in (spec, [spec]):
        traj = evolve(specs, projector("eg"), TimeGrid(0.1, dt=0.05), aux=None, aux0=0.0)
        assert traj.step_count == 2


def test_traced_jobs_run_and_count_generator_calls(tmp_path):
    # the jobs run side by side, each in a fresh interpreter with the tracer
    # installed; the march calls the traced coefficient function, so each
    # trace counts liouville.rhs calls
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    procs = {name: subprocess.Popen(
        [sys.executable, str(TRACER), str(tmp_path / f"{name}.json"), "--", *args,
         "--out", str(tmp_path / f"{name}.csv")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, args in TINY_JOBS.items()}
    for name, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (name, err)
        trace = json.loads((tmp_path / f"{name}.json").read_text())
        assert trace["spans"]["liouville.rhs"]["calls"] > 0, name
