"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py replaces module attributes of gaqb with timing
wrappers and raises at install time when one is gone, so deleting or
renaming a name it wraps breaks `perfbench/run.py --trace 1`.  These tests
read the tracer's site list without installing it.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from gaqb.geometry import BRAIDED, CouplingLayout, closed_form_params
from gaqb.integrator import TimeGrid
from gaqb.liouville import LiouvillianSpec, projector

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    spec = LiouvillianSpec(closed_form_params(CouplingLayout(BRAIDED, 0.7, 0.1)))
    for specs in (spec, [spec]):
        traj = evolve(specs, projector("eg"), TimeGrid(0.0, 0.1, dt=0.05), aux=None, aux0=0.0)
        assert traj.step_count == 2
