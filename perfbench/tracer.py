"""Span tracer for one gaqb CLI job, installed from outside the package.

Usage: python perfbench/tracer.py TRACE_JSON -- <gaqb cli arguments>

The script imports ``gaqb``, replaces the layer-boundary functions listed
in ``SITES`` (and the two closures they hand out: the rhs returned by
``make_generator`` and the leak-rate callback passed to ``evolve``) with
timing wrappers, runs ``gaqb.cli.main`` and writes the per-span totals to
TRACE_JSON.  Nothing under ``src/`` changes.

Names imported with ``from .x import y`` are bound in the importing
module, so every site is the attribute the caller actually looks up (for
example ``gaqb.cli.evolve`` and ``gaqb.chiral.evolve``).  A site whose
attribute no longer exists raises at install time.

Timing uses integer nanoseconds: a span's self time is its duration minus
the durations of the spans directly inside it, so the self times of all
spans add up exactly to the time covered by the outermost spans.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time

# (span key, module that holds the name, attribute); the key's prefix up
# to the first '.' is the module the span's self time is charged to.
SITES = (
    ("geometry.params", "gaqb.cli", "closed_form_params"),
    ("liouville.build", "gaqb.integrator", "make_generator"),
    ("liouville.jump", "gaqb.chiral", "jump_operator"),
    ("integrator.evolve", "gaqb.cli", "evolve"),
    ("integrator.evolve", "gaqb.chiral", "evolve"),
    ("metrics.records", "gaqb.cli", "compute_records"),
    ("metrics.records", "gaqb.chiral", "compute_records"),
    ("chiral.coeff", "gaqb.chiral", "chiral_coupling_params"),
    ("chiral.transfer", "gaqb.cli", "run_transfer"),
    ("cli.main", "gaqb.cli", "main"),
    ("cli.command", "gaqb.cli", "run_charge"),
    ("cli.command", "gaqb.cli", "run_sweep"),
    ("cli.command", "gaqb.cli", "run_chiral"),
    ("cli.cell", "gaqb.cli", "_sweep_cell"),
    ("cli.trajectory", "gaqb.cli", "charge_trajectory"),
    ("cli.write", "gaqb.cli", "_emit"),
)

# spans created around closures rather than at a module attribute
DYNAMIC_SPANS = ("liouville.rhs", "chiral.leak")


class Tracer:
    """Per-key call counts, total and self nanoseconds, plus work counters."""

    def __init__(self):
        self.stack = [0]  # child-time accumulators; [0] sums the outermost spans
        self.spans = {}   # key -> [calls, total_ns, self_ns]
        self.hits = {}    # site -> [calls]
        self.counts = {
            "steps": 0, "snapshots": 0, "records": 0,
            "cells": 0, "sweep_cells": 0, "rows": 0, "bytes": 0,
        }

    def span(self, key, fn, site=None, after=None):
        """Wrap fn so each call is timed as one span under key."""
        st = self.spans.setdefault(key, [0, 0, 0])
        hit = self.hits.setdefault(site or key, [0])
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            hit[0] += 1
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                child = stack.pop()
                stack[-1] += d
                st[0] += 1
                st[1] += d
                st[2] += d - child
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # work counters read from the wrapped calls' arguments and results
    def _after_evolve(self, traj, args):
        self.counts["steps"] += traj.step_count
        self.counts["snapshots"] += len(traj.times)

    def _after_records(self, records, args):
        self.counts["records"] += len(records)

    def _after_command(self, result, args):
        cells = getattr(result, "cells", None)  # only a sweep has a grid
        if cells is None:
            self.counts["cells"] += 1
        else:
            self.counts["cells"] += len(cells)
            self.counts["sweep_cells"] += len(cells)

    def _after_emit(self, result, args):
        cfg, rows = args[0], args[2]
        self.counts["rows"] += len(rows)
        if cfg.out is not None:
            self.counts["bytes"] += os.path.getsize(cfg.out)

    def install(self):
        """Replace every site in SITES by its timing wrapper."""
        afters = {
            "integrator.evolve": self._after_evolve,
            "metrics.records": self._after_records,
            "cli.command": self._after_command,
            "cli.write": self._after_emit,
        }
        for key, modname, attr in SITES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)  # AttributeError: the site moved
            fn = orig
            if key == "liouville.build":
                fn = self._build_wrapper(orig)
            elif key == "integrator.evolve":
                fn = self._evolve_wrapper(orig)
            site = f"{modname.split('.')[-1]}.{attr}"
            setattr(mod, attr, self.span(key, fn, site, afters.get(key)))

    def _build_wrapper(self, make_generator):
        def build(spec):
            return self.span("liouville.rhs", make_generator(spec))
        return build

    def _evolve_wrapper(self, evolve):
        def run(spec, rho0, grid, aux=None, aux0=0.0):
            if aux is not None:
                aux = self.span("chiral.leak", aux)
            return evolve(spec, rho0, grid, aux=aux, aux0=aux0)
        return run

    def report(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
                      for k, v in self.spans.items()},
            "hits": {k: v[0] for k, v in self.hits.items()},
            "counts": dict(self.counts),
            "outer_ns": self.stack[0],
        }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <gaqb cli arguments>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import gaqb.cli

    code = gaqb.cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
